type t =
  | Add
  | Adc
  | Sub
  | Sbb
  | And
  | Or
  | Xor
  | Cmp
  | Test
  | Mov
  | Imul
  | Inc
  | Dec
  | Neg
  | Not
  | Shl
  | Shr
  | Sar
  | Rol
  | Ror
  | Movzx
  | Movsx
  | Xchg
  | Cmov of Cond.t
  | Setcc of Cond.t
  | Div
  | Idiv
  | Jcc of Cond.t
  | Jmp
  | JmpInd
  | Call
  | Ret
  | Lfence
  | Mfence
  | Nop

let mnemonic = function
  | Add -> "ADD"
  | Adc -> "ADC"
  | Sub -> "SUB"
  | Sbb -> "SBB"
  | And -> "AND"
  | Or -> "OR"
  | Xor -> "XOR"
  | Cmp -> "CMP"
  | Test -> "TEST"
  | Mov -> "MOV"
  | Imul -> "IMUL"
  | Inc -> "INC"
  | Dec -> "DEC"
  | Neg -> "NEG"
  | Not -> "NOT"
  | Shl -> "SHL"
  | Shr -> "SHR"
  | Sar -> "SAR"
  | Rol -> "ROL"
  | Ror -> "ROR"
  | Movzx -> "MOVZX"
  | Movsx -> "MOVSX"
  | Xchg -> "XCHG"
  | Cmov c -> "CMOV" ^ Cond.suffix c
  | Setcc c -> "SET" ^ Cond.suffix c
  | Div -> "DIV"
  | Idiv -> "IDIV"
  | Jcc c -> "J" ^ Cond.suffix c
  | Jmp -> "JMP"
  | JmpInd -> "JMPI"
  | Call -> "CALL"
  | Ret -> "RET"
  | Lfence -> "LFENCE"
  | Mfence -> "MFENCE"
  | Nop -> "NOP"

let of_mnemonic s =
  let s = String.uppercase_ascii s in
  let prefixed p =
    if String.length s > String.length p && String.sub s 0 (String.length p) = p
    then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  match s with
  | "ADD" -> Some Add
  | "ADC" -> Some Adc
  | "SUB" -> Some Sub
  | "SBB" -> Some Sbb
  | "AND" -> Some And
  | "OR" -> Some Or
  | "XOR" -> Some Xor
  | "CMP" -> Some Cmp
  | "TEST" -> Some Test
  | "MOV" -> Some Mov
  | "IMUL" -> Some Imul
  | "INC" -> Some Inc
  | "DEC" -> Some Dec
  | "NEG" -> Some Neg
  | "NOT" -> Some Not
  | "SHL" -> Some Shl
  | "SHR" -> Some Shr
  | "SAR" -> Some Sar
  | "ROL" -> Some Rol
  | "ROR" -> Some Ror
  | "MOVZX" -> Some Movzx
  | "MOVSX" -> Some Movsx
  | "XCHG" -> Some Xchg
  | "DIV" -> Some Div
  | "IDIV" -> Some Idiv
  | "JMP" -> Some Jmp
  | "JMPI" -> Some JmpInd
  | "CALL" -> Some Call
  | "RET" -> Some Ret
  | "LFENCE" -> Some Lfence
  | "MFENCE" -> Some Mfence
  | "NOP" -> Some Nop
  | _ -> (
      let ( >>= ) = Option.bind in
      let try_cond p f = prefixed p >>= Cond.of_suffix >>= fun c -> Some (f c) in
      match try_cond "CMOV" (fun c -> Cmov c) with
      | Some _ as r -> r
      | None -> (
          match try_cond "SET" (fun c -> Setcc c) with
          | Some _ as r -> r
          | None -> try_cond "J" (fun c -> Jcc c)))

let writes_flags = function
  | Add | Adc | Sub | Sbb | And | Or | Xor | Cmp | Test | Imul | Inc | Dec | Neg
  | Shl | Shr | Sar | Rol | Ror | Div | Idiv ->
      true
  | Mov | Not | Movzx | Movsx | Xchg | Cmov _ | Setcc _ | Jcc _ | Jmp | JmpInd
  | Call | Ret | Lfence | Mfence | Nop ->
      false

let reads_flags = function
  | Adc | Sbb | Cmov _ | Setcc _ | Jcc _ -> true
  | Add | Sub | And | Or | Xor | Cmp | Test | Mov | Imul | Inc | Dec | Neg | Not
  | Shl | Shr | Sar | Rol | Ror | Movzx | Movsx | Xchg | Div | Idiv | Jmp
  | JmpInd | Call | Ret | Lfence | Mfence | Nop ->
      false

let is_serializing = function
  | Lfence | Mfence -> true
  | Add | Adc | Sub | Sbb | And | Or | Xor | Cmp | Test | Mov | Imul | Inc | Dec
  | Neg | Not | Shl | Shr | Sar | Rol | Ror | Movzx | Movsx | Xchg | Cmov _
  | Setcc _ | Div | Idiv | Jcc _ | Jmp | JmpInd | Call | Ret | Nop ->
      false

let is_control_flow = function
  | Jcc _ | Jmp | JmpInd | Call | Ret -> true
  | Add | Adc | Sub | Sbb | And | Or | Xor | Cmp | Test | Mov | Imul | Inc | Dec
  | Neg | Not | Shl | Shr | Sar | Rol | Ror | Movzx | Movsx | Xchg | Cmov _
  | Setcc _ | Div | Idiv | Lfence | Mfence | Nop ->
      false
