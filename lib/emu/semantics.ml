open Revizor_isa

exception Division_fault

type access = {
  kind : [ `Load | `Store ];
  addr : int64;
  width : Width.t;
  value : int64;
}

type outcome = {
  inst : Instruction.t;
  pc : int;
  accesses : access list;
  taken : bool option;
  next : int;
}

let mem_addr (state : State.t) (m : Operand.mem) =
  let base = match m.base with Some r -> State.get_reg state r Width.W64 | None -> 0L in
  let index =
    match m.index with
    | Some r -> Int64.mul (State.get_reg state r Width.W64) (Int64.of_int m.scale)
    | None -> 0L
  in
  Int64.add (Int64.add base index) (Int64.of_int m.disp)

let[@inline] mask_code_index ~code_len v =
  let n = code_len + 1 in
  ((Int64.to_int v land max_int) mod n + n) mod n

(* Accesses are accumulated in reverse program order in a mutable list. *)
type ctx = { state : State.t; mutable accesses : access list }

let load ctx addr width =
  let value = Memory.read ctx.state.State.mem ~addr width in
  ctx.accesses <- { kind = `Load; addr; width; value } :: ctx.accesses;
  value

let store ctx addr width value =
  Memory.write ctx.state.State.mem ~addr width value;
  ctx.accesses <- { kind = `Store; addr; width; value } :: ctx.accesses

let operand_width (i : Instruction.t) =
  let from_list =
    List.find_map (fun op -> Operand.width op) i.Instruction.operands
  in
  match from_list with Some w -> w | None -> Width.W64

(* Read the value of a source operand (zero-extended to 64 bits). *)
let read_src ctx w (op : Operand.t) =
  match op with
  | Operand.Reg (r, w') -> State.get_reg ctx.state r w'
  | Operand.Imm v -> Word.zext w v
  | Operand.Mem (m, w') -> load ctx (mem_addr ctx.state m) w'

(* Read a destination for a read-modify-write operation. *)
let read_dst ctx (op : Operand.t) =
  match op with
  | Operand.Reg (r, w) -> State.get_reg ctx.state r w
  | Operand.Mem (m, w) -> load ctx (mem_addr ctx.state m) w
  | Operand.Imm _ -> invalid_arg "Semantics: immediate destination"

let write_dst ctx (op : Operand.t) v =
  match op with
  | Operand.Reg (r, w) -> State.set_reg ctx.state r w v
  | Operand.Mem (m, w) -> store ctx (mem_addr ctx.state m) w (Word.zext w v)
  | Operand.Imm _ -> invalid_arg "Semantics: immediate destination"

let set_flags ctx f = ctx.state.State.flags <- f

let exec_binop ctx (i : Instruction.t) dst src =
  let w = operand_width i in
  let flags = ctx.state.State.flags in
  match i.Instruction.opcode with
  | Opcode.Mov ->
      let b = read_src ctx w src in
      write_dst ctx dst b
  | Opcode.Add ->
      let a = read_dst ctx dst and b = read_src ctx w src in
      let r = Word.zext w (Int64.add a b) in
      set_flags ctx (Flags.after_add w ~a ~b ~carry_in:false ~r);
      write_dst ctx dst r
  | Opcode.Adc ->
      let a = read_dst ctx dst and b = read_src ctx w src in
      let c = if Flags.cf flags then 1L else 0L in
      let r = Word.zext w (Int64.add (Int64.add a b) c) in
      set_flags ctx (Flags.after_add w ~a ~b ~carry_in:(Flags.cf flags) ~r);
      write_dst ctx dst r
  | Opcode.Sub ->
      let a = read_dst ctx dst and b = read_src ctx w src in
      let r = Word.zext w (Int64.sub a b) in
      set_flags ctx (Flags.after_sub w ~a ~b ~borrow_in:false ~r);
      write_dst ctx dst r
  | Opcode.Sbb ->
      let a = read_dst ctx dst and b = read_src ctx w src in
      let c = if Flags.cf flags then 1L else 0L in
      let r = Word.zext w (Int64.sub (Int64.sub a b) c) in
      set_flags ctx (Flags.after_sub w ~a ~b ~borrow_in:(Flags.cf flags) ~r);
      write_dst ctx dst r
  | Opcode.Cmp ->
      let a = read_dst ctx dst and b = read_src ctx w src in
      let r = Word.zext w (Int64.sub a b) in
      set_flags ctx (Flags.after_sub w ~a ~b ~borrow_in:false ~r)
  | Opcode.And ->
      let a = read_dst ctx dst and b = read_src ctx w src in
      let r = Word.zext w (Int64.logand a b) in
      set_flags ctx (Flags.after_logic w ~r);
      write_dst ctx dst r
  | Opcode.Or ->
      let a = read_dst ctx dst and b = read_src ctx w src in
      let r = Word.zext w (Int64.logor a b) in
      set_flags ctx (Flags.after_logic w ~r);
      write_dst ctx dst r
  | Opcode.Xor ->
      let a = read_dst ctx dst and b = read_src ctx w src in
      let r = Word.zext w (Int64.logxor a b) in
      set_flags ctx (Flags.after_logic w ~r);
      write_dst ctx dst r
  | Opcode.Test ->
      let a = read_dst ctx dst and b = read_src ctx w src in
      let r = Word.zext w (Int64.logand a b) in
      set_flags ctx (Flags.after_logic w ~r)
  | Opcode.Imul ->
      let a = read_dst ctx dst and b = read_src ctx w src in
      let sa = Word.sext w a and sb = Word.sext w b in
      let full = Int64.mul sa sb in
      let r = Word.zext w full in
      let full_overflow =
        match w with
        | Width.W64 ->
            sa <> 0L && (Int64.div full sa <> sb || (sa = -1L && sb = Int64.min_int))
        | Width.W8 | Width.W16 | Width.W32 -> Word.sext w full <> full
      in
      set_flags ctx (Flags.after_imul w ~full_overflow ~r);
      write_dst ctx dst r
  | Opcode.Cmov c ->
      (* x86: the destination is always written (a 32-bit CMOV zeroes the
         upper half even when the condition is false). *)
      let b = read_src ctx w src in
      let old = match dst with
        | Operand.Reg (r, w') -> State.get_reg ctx.state r w'
        | Operand.Mem _ | Operand.Imm _ -> invalid_arg "CMOV destination"
      in
      let v = if Flags.eval_cond flags c then b else old in
      write_dst ctx dst v
  | Opcode.Movzx ->
      let v = read_src ctx w src in
      write_dst ctx dst v
  | Opcode.Movsx ->
      let ws = match Operand.width src with Some w' -> w' | None -> w in
      let v = read_src ctx w src in
      write_dst ctx dst (Word.sext ws v)
  | Opcode.Xchg -> (
      match (dst, src) with
      | Operand.Reg (ra, wa), Operand.Reg (rb, _) ->
          let va = State.get_reg ctx.state ra wa
          and vb = State.get_reg ctx.state rb wa in
          State.set_reg ctx.state ra wa vb;
          State.set_reg ctx.state rb wa va
      | (Operand.Mem _ as m), Operand.Reg (r, wr)
      | Operand.Reg (r, wr), (Operand.Mem _ as m) ->
          let vm = read_dst ctx m in
          let vr = State.get_reg ctx.state r wr in
          write_dst ctx m vr;
          State.set_reg ctx.state r wr vm
      | _ -> invalid_arg "XCHG operands")
  | Opcode.Rol | Opcode.Ror ->
      let op = if i.Instruction.opcode = Opcode.Rol then `Rol else `Ror in
      let a = read_dst ctx dst in
      let raw_count = read_src ctx w src in
      let count_mask = if Width.equal w Width.W64 then 63L else 31L in
      let count = Int64.to_int (Int64.logand raw_count count_mask) in
      let bits = Width.bits w in
      let eff = count mod bits in
      let a' = Word.zext w a in
      let r =
        if eff = 0 then a'
        else
          match op with
          | `Rol ->
              Word.zext w
                (Int64.logor (Int64.shift_left a' eff)
                   (Int64.shift_right_logical a' (bits - eff)))
          | `Ror ->
              Word.zext w
                (Int64.logor
                   (Int64.shift_right_logical a' eff)
                   (Int64.shift_left a' (bits - eff)))
      in
      set_flags ctx (Flags.after_rotate w flags ~op ~count ~r);
      if count <> 0 then write_dst ctx dst r
  | Opcode.Shl | Opcode.Shr | Opcode.Sar ->
      let op =
        match i.Instruction.opcode with
        | Opcode.Shl -> `Shl
        | Opcode.Shr -> `Shr
        | _ -> `Sar
      in
      let a = read_dst ctx dst in
      let raw_count = read_src ctx w src in
      let count_mask = if Width.equal w Width.W64 then 63L else 31L in
      let count = Int64.to_int (Int64.logand raw_count count_mask) in
      let bits = Width.bits w in
      let r =
        if count = 0 then Word.zext w a
        else
          match op with
          | `Shl ->
              if count >= bits then 0L
              else Word.zext w (Int64.shift_left (Word.zext w a) count)
          | `Shr ->
              if count >= bits then 0L
              else Int64.shift_right_logical (Word.zext w a) count
          | `Sar ->
              let sa = Word.sext w a in
              let c = min count 63 in
              Word.zext w (Int64.shift_right sa c)
      in
      set_flags ctx (Flags.after_shift w flags ~op ~a ~count ~r);
      if count <> 0 then write_dst ctx dst r
  | _ -> invalid_arg "Semantics.exec_binop"

let exec_unop ctx (i : Instruction.t) dst =
  let w = operand_width i in
  let flags = ctx.state.State.flags in
  match i.Instruction.opcode with
  | Opcode.Inc ->
      let a = read_dst ctx dst in
      let r = Word.zext w (Int64.add a 1L) in
      set_flags ctx (Flags.after_inc w flags ~a ~r);
      write_dst ctx dst r
  | Opcode.Dec ->
      let a = read_dst ctx dst in
      let r = Word.zext w (Int64.sub a 1L) in
      set_flags ctx (Flags.after_dec w flags ~a ~r);
      write_dst ctx dst r
  | Opcode.Neg ->
      let a = read_dst ctx dst in
      let r = Word.zext w (Int64.neg a) in
      set_flags ctx (Flags.after_neg w ~a ~r);
      write_dst ctx dst r
  | Opcode.Not ->
      let a = read_dst ctx dst in
      write_dst ctx dst (Word.zext w (Int64.lognot a))
  | Opcode.Setcc c ->
      write_dst ctx dst (if Flags.eval_cond flags c then 1L else 0L)
  | _ -> invalid_arg "Semantics.exec_unop"

let exec_div ctx (i : Instruction.t) src =
  let w = operand_width i in
  let divisor = read_src ctx w src in
  let rax = State.get_reg ctx.state Reg.RAX w in
  let rdx = State.get_reg ctx.state Reg.RDX w in
  let signed = i.Instruction.opcode = Opcode.Idiv in
  if Word.zext w divisor = 0L then raise Division_fault;
  let quotient, remainder =
    if not signed then
      match w with
      | Width.W64 ->
          (* Model restriction: 128-bit dividends are not supported; the
             instrumentation zeroes RDX. A nonzero high part overflows
             whenever rdx >= divisor, and is unsupported otherwise. *)
          if rdx <> 0L then raise Division_fault
          else (Int64.unsigned_div rax divisor, Int64.unsigned_rem rax divisor)
      | Width.W8 | Width.W16 | Width.W32 ->
          let bits = Width.bits w in
          let dividend = Int64.logor (Int64.shift_left rdx bits) rax in
          let q = Int64.unsigned_div dividend divisor in
          if Int64.unsigned_compare q (Width.mask w) > 0 then raise Division_fault;
          (q, Int64.unsigned_rem dividend divisor)
    else
      let sd = Word.sext w divisor in
      match w with
      | Width.W64 ->
          let high_ok = rdx = Int64.shift_right rax 63 in
          if not high_ok then raise Division_fault;
          if rax = Int64.min_int && sd = -1L then raise Division_fault;
          (Int64.div rax sd, Int64.rem rax sd)
      | Width.W8 | Width.W16 | Width.W32 ->
          let bits = Width.bits w in
          let dividend = Int64.logor (Int64.shift_left rdx bits) rax in
          let q = Int64.div dividend sd in
          let half = Int64.shift_left 1L (bits - 1) in
          if Int64.compare q (Int64.neg half) < 0 || Int64.compare q half >= 0
          then raise Division_fault;
          (q, Int64.rem dividend sd)
  in
  State.set_reg ctx.state Reg.RAX w quotient;
  State.set_reg ctx.state Reg.RDX w remainder

let step (flat : Program.flat) (state : State.t) : outcome =
  let code_len = Array.length flat.Program.code in
  if state.State.pc < 0 || state.State.pc >= code_len then
    invalid_arg "Semantics.step: pc out of range";
  let pc = state.State.pc in
  let i = flat.Program.code.(pc) in
  let ctx = { state; accesses = [] } in
  let fall = pc + 1 in
  let next = ref fall in
  let taken = ref None in
  (match (i.Instruction.opcode, i.Instruction.operands) with
  | (Opcode.Lfence | Opcode.Mfence | Opcode.Nop), _ -> ()
  | Opcode.Jmp, _ -> next := flat.Program.target.(pc)
  | Opcode.Jcc c, _ ->
      let b = Flags.eval_cond state.State.flags c in
      taken := Some b;
      if b then next := flat.Program.target.(pc)
  | Opcode.JmpInd, [ Operand.Reg (r, _) ] ->
      let v = State.get_reg state r Width.W64 in
      next := mask_code_index ~code_len v
  | Opcode.Call, _ ->
      let rsp = Int64.sub (State.get_reg state Reg.stack_pointer Width.W64) 8L in
      State.set_reg state Reg.stack_pointer Width.W64 rsp;
      store ctx rsp Width.W64 (Int64.of_int fall);
      next := flat.Program.target.(pc)
  | Opcode.Ret, _ ->
      let rsp = State.get_reg state Reg.stack_pointer Width.W64 in
      let v = load ctx rsp Width.W64 in
      State.set_reg state Reg.stack_pointer Width.W64 (Int64.add rsp 8L);
      next := mask_code_index ~code_len v
  | (Opcode.Div | Opcode.Idiv), [ src ] -> exec_div ctx i src
  | ( ( Opcode.Add | Opcode.Adc | Opcode.Sub | Opcode.Sbb | Opcode.And
      | Opcode.Or | Opcode.Xor | Opcode.Cmp | Opcode.Test | Opcode.Mov
      | Opcode.Imul | Opcode.Cmov _ | Opcode.Shl | Opcode.Shr | Opcode.Sar
      | Opcode.Rol | Opcode.Ror | Opcode.Movzx | Opcode.Movsx | Opcode.Xchg ),
      [ dst; src ] ) ->
      exec_binop ctx i dst src
  | (Opcode.Inc | Opcode.Dec | Opcode.Neg | Opcode.Not | Opcode.Setcc _), [ dst ]
    ->
      exec_unop ctx i dst
  | op, _ ->
      invalid_arg
        (Printf.sprintf "Semantics.step: unsupported %s form" (Opcode.mnemonic op)));
  state.State.pc <- !next;
  { inst = i; pc; accesses = List.rev ctx.accesses; taken = !taken; next = !next }

let run ?(max_steps = 4096) flat state =
  let code_len = Array.length flat.Program.code in
  let rec go acc steps =
    if state.State.pc >= code_len || state.State.pc < 0 || steps >= max_steps then
      List.rev acc
    else
      let o = step flat state in
      go (o :: acc) (steps + 1)
  in
  go [] 0
