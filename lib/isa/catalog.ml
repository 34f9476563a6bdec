type okind = KReg | KImm | KMem | KCl

type spec = {
  opcode : Opcode.t;
  width : Width.t;
  src_width : Width.t option;
  shape : okind list;
  lock_ok : bool;
  terminator : bool;
}

type subset = AR | MEM | VAR | CB | IND

let subset_to_string = function
  | AR -> "AR"
  | MEM -> "MEM"
  | VAR -> "VAR"
  | CB -> "CB"
  | IND -> "IND"

let subset_of_string s =
  match String.uppercase_ascii s with
  | "AR" -> Ok AR
  | "MEM" -> Ok MEM
  | "VAR" -> Ok VAR
  | "CB" -> Ok CB
  | "IND" -> Ok IND
  | other -> Error (Printf.sprintf "unknown ISA subset %S" other)

let plain opcode width shape =
  { opcode; width; src_width = None; shape; lock_ok = false; terminator = false }

let rmw opcode width shape = { (plain opcode width shape) with lock_ok = true }

let term opcode =
  {
    opcode;
    width = Width.W64;
    src_width = None;
    shape = [];
    lock_ok = false;
    terminator = true;
  }

(* widening conversions: (dst, src) pairs with dst strictly wider *)
let conversion_pairs =
  [
    (Width.W16, Width.W8);
    (Width.W32, Width.W8);
    (Width.W32, Width.W16);
    (Width.W64, Width.W8);
    (Width.W64, Width.W16);
    (Width.W64, Width.W32);
  ]

let widths_all = Width.all
let widths_no8 = [ Width.W16; Width.W32; Width.W64 ]

let alu_binops : Opcode.t list =
  [ Add; Adc; Sub; Sbb; And; Or; Xor; Cmp; Test; Mov ]

(* AR: register/immediate forms only. *)
let ar_specs =
  let binop_forms =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun w -> [ plain op w [ KReg; KReg ]; plain op w [ KReg; KImm ] ])
          widths_all)
      alu_binops
  in
  let imul_forms =
    List.concat_map
      (fun w -> [ plain Opcode.Imul w [ KReg; KReg ]; plain Opcode.Imul w [ KReg; KImm ] ])
      widths_no8
  in
  let unary_forms =
    List.concat_map
      (fun op -> List.map (fun w -> plain op w [ KReg ]) widths_all)
      [ Opcode.Inc; Opcode.Dec; Opcode.Neg; Opcode.Not ]
  in
  let shift_forms =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun w -> [ plain op w [ KReg; KImm ]; plain op w [ KReg; KCl ] ])
          widths_all)
      [ Opcode.Shl; Opcode.Shr; Opcode.Sar; Opcode.Rol; Opcode.Ror ]
  in
  let conversion_forms =
    List.concat_map
      (fun op ->
        List.map
          (fun (wd, ws) ->
            { (plain op wd [ KReg; KReg ]) with src_width = Some ws })
          conversion_pairs)
      [ Opcode.Movzx; Opcode.Movsx ]
  in
  let xchg_forms = List.map (fun w -> plain Opcode.Xchg w [ KReg; KReg ]) widths_all in
  let cmov_forms =
    List.concat_map
      (fun c -> List.map (fun w -> plain (Opcode.Cmov c) w [ KReg; KReg ]) widths_no8)
      Cond.all
  in
  let setcc_forms =
    List.map (fun c -> plain (Opcode.Setcc c) Width.W8 [ KReg ]) Cond.all
  in
  binop_forms @ imul_forms @ unary_forms @ shift_forms @ conversion_forms
  @ xchg_forms @ cmov_forms @ setcc_forms

(* MEM: the additional memory-operand forms. *)
let mem_specs =
  let binop_mem_forms =
    List.concat_map
      (fun op ->
        let dst_mem_ok = op <> Opcode.Test && op <> Opcode.Cmp in
        List.concat_map
          (fun w ->
            plain op w [ KReg; KMem ]
            ::
            (if dst_mem_ok then [ rmw op w [ KMem; KReg ]; rmw op w [ KMem; KImm ] ]
             else [ plain op w [ KMem; KReg ]; plain op w [ KMem; KImm ] ]))
          widths_all)
      alu_binops
  in
  let imul_mem = List.map (fun w -> plain Opcode.Imul w [ KReg; KMem ]) widths_no8 in
  let unary_mem =
    List.concat_map
      (fun op -> List.map (fun w -> rmw op w [ KMem ]) widths_all)
      [ Opcode.Inc; Opcode.Dec; Opcode.Neg; Opcode.Not ]
  in
  let shift_mem =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun w -> [ rmw op w [ KMem; KImm ]; rmw op w [ KMem; KCl ] ])
          widths_all)
      [ Opcode.Shl; Opcode.Shr; Opcode.Sar; Opcode.Rol; Opcode.Ror ]
  in
  let conversion_mem =
    List.concat_map
      (fun op ->
        List.map
          (fun (wd, ws) ->
            { (plain op wd [ KReg; KMem ]) with src_width = Some ws })
          conversion_pairs)
      [ Opcode.Movzx; Opcode.Movsx ]
  in
  let xchg_mem = List.map (fun w -> rmw Opcode.Xchg w [ KMem; KReg ]) widths_all in
  let cmov_mem =
    List.concat_map
      (fun c -> List.map (fun w -> plain (Opcode.Cmov c) w [ KReg; KMem ]) widths_no8)
      Cond.all
  in
  let setcc_mem = List.map (fun c -> plain (Opcode.Setcc c) Width.W8 [ KMem ]) Cond.all in
  binop_mem_forms @ imul_mem @ unary_mem @ shift_mem @ conversion_mem
  @ xchg_mem @ cmov_mem @ setcc_mem

let var_specs =
  List.concat_map
    (fun op ->
      List.concat_map (fun w -> [ plain op w [ KReg ]; plain op w [ KMem ] ]) widths_no8)
    [ Opcode.Div; Opcode.Idiv ]

let cb_specs = List.map (fun c -> term (Opcode.Jcc c)) Cond.all @ [ term Opcode.Jmp ]

let ind_specs =
  [
    { (term Opcode.JmpInd) with shape = [ KReg ] };
    term Opcode.Call;
    term Opcode.Ret;
  ]

let of_subset = function
  | AR -> ar_specs
  | MEM -> mem_specs
  | VAR -> var_specs
  | CB -> cb_specs
  | IND -> ind_specs

let specs subsets =
  let subsets = List.sort_uniq Stdlib.compare subsets in
  List.concat_map of_subset subsets

let body_specs subsets = List.filter (fun s -> not s.terminator) (specs subsets)
let count subsets = List.length (specs subsets)

let okind_name w = function
  | KReg -> Printf.sprintf "r%d" (Width.bits w)
  | KImm -> "i"
  | KMem -> Printf.sprintf "m%d" (Width.bits w)
  | KCl -> "cl"

let spec_name s =
  match s.shape with
  | [] -> Opcode.mnemonic s.opcode
  | shape ->
      let parts =
        match (s.src_width, shape) with
        | Some ws, [ k1; k2 ] -> [ okind_name s.width k1; okind_name ws k2 ]
        | _ -> List.map (okind_name s.width) shape
      in
      Opcode.mnemonic s.opcode ^ "_" ^ String.concat "_" parts
