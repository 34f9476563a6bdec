open Revizor_isa
open Revizor_emu

type cfg = {
  n_insts : int;
  n_blocks : int;
  n_functions : int;
  max_mem_accesses : int;
  subsets : Catalog.subset list;
  mem_pages : int;
}

let default_cfg =
  {
    n_insts = 8;
    n_blocks = 2;
    n_functions = 0;
    max_mem_accesses = 2;
    subsets = [ Catalog.AR; Catalog.MEM; Catalog.CB ];
    mem_pages = 1;
  }

(* Growth is capped: unbounded growth makes late rounds of a non-detecting
   campaign arbitrarily slow without improving the speculation surface. *)
let grow cfg =
  {
    cfg with
    n_insts = min 48 (cfg.n_insts + 8);
    n_blocks = min 8 (cfg.n_blocks + 1);
    max_mem_accesses = min 12 (cfg.max_mem_accesses + 2);
  }

let has_subset cfg s = List.mem s cfg.subsets

let random_imm prng =
  (* Mostly small values, occasionally a wide one, like nanoBench-based
     generation produces. *)
  if Prng.int prng 8 = 0 then Prng.next prng
  else Int64.of_int (Prng.int prng 65536)

let spec_has_mem (s : Catalog.spec) = List.mem Catalog.KMem s.Catalog.shape

let instantiate prng (spec : Catalog.spec) ~offset =
  let operand pos kind =
    (* width-converting forms read their source at a narrower width *)
    let w =
      match (pos, spec.Catalog.src_width) with
      | 1, Some ws -> ws
      | _ -> spec.Catalog.width
    in
    match kind with
    | Catalog.KReg -> Operand.reg ~w (Prng.choose prng Reg.gen_pool)
    | Catalog.KImm -> Operand.imm64 (random_imm prng)
    | Catalog.KMem -> Operand.sandbox ~w ~disp:offset (Prng.choose prng Reg.gen_pool)
    | Catalog.KCl -> Operand.Reg (Reg.RCX, Width.W8)
  in
  let lock = spec.Catalog.lock_ok && Prng.int prng 8 = 0 in
  Instruction.make ~operands:(List.mapi operand spec.Catalog.shape) ~lock
    spec.Catalog.opcode

(* ------------------------------------------------------------------ *)
(* Raw generation                                                      *)
(* ------------------------------------------------------------------ *)

(* The body specs of one program, drawn by index: every spec while the
   memory budget lasts, then the specs without a memory operand (every
   spec again if all of them have one). Built once per program; a draw
   is the [Prng.int] that [Prng.choose] makes over the same list. *)
type pools = { all : Catalog.spec array; no_mem : Catalog.spec array }

let pools subsets =
  let specs = Catalog.body_specs subsets in
  let all = Array.of_list specs in
  match List.filter (fun s -> not (spec_has_mem s)) specs with
  | [] -> { all; no_mem = all }
  | l -> { all; no_mem = Array.of_list l }

let body_instruction prng pools ~offset ~mem_budget ~functions =
  (* A CALL to a leaf function occasionally replaces a body instruction. *)
  if functions <> [] && Prng.int prng 10 = 0 then
    Instruction.call (Prng.choose prng functions)
  else
    let pool = if !mem_budget > 0 then pools.all else pools.no_mem in
    if Array.length pool = 0 then
      invalid_arg "Generator: the configured subsets have no body instructions";
    let spec = pool.(Prng.int prng (Array.length pool)) in
    if spec_has_mem spec then decr mem_budget;
    instantiate prng spec ~offset

let block_label i = Printf.sprintf "bb%d" i
let fn_label i = Printf.sprintf "fn%d" i
let exit_label = "exit"

let generate_raw prng cfg =
  let offset = Prng.int prng Layout.cache_line in
  let mem_budget = ref (max 0 cfg.max_mem_accesses) in
  let n_blocks = max 1 cfg.n_blocks in
  let n_functions = if has_subset cfg Catalog.IND then cfg.n_functions else 0 in
  let functions = List.init n_functions fn_label in
  (* Distribute body instructions over main blocks and functions. *)
  let n_units = n_blocks + n_functions in
  let counts = Array.make n_units 0 in
  for _ = 1 to cfg.n_insts do
    let u = Prng.int prng n_units in
    counts.(u) <- counts.(u) + 1
  done;
  let pools = pools cfg.subsets in
  let body u =
    (* function bodies are leaves: no calls from them (keeps the static
       call graph forward-only) *)
    let callable = if u < n_blocks then functions else [] in
    List.init counts.(u) (fun _ ->
        body_instruction prng pools ~offset ~mem_budget ~functions:callable)
  in
  let needs_exit = n_functions > 0 in
  let terminator i =
    (* Last main block: jump over the functions if there are any. *)
    if i = n_blocks - 1 then if needs_exit then [ Instruction.jmp exit_label ] else []
    else
      let candidates = List.init (n_blocks - 1 - i) (fun k -> i + 1 + k) in
      let far = block_label (Prng.choose prng candidates) in
      if has_subset cfg Catalog.CB && Prng.int prng 10 < 6 then
        [ Instruction.jcc (Prng.choose prng Cond.all) far ]
      else if Prng.bool prng then [ Instruction.jmp far ]
      else []
  in
  let main_blocks =
    List.init n_blocks (fun i ->
        Program.block (block_label i) (body i @ terminator i))
  in
  let fn_blocks =
    List.init n_functions (fun k ->
        Program.block (fn_label k) (body (n_blocks + k) @ [ Instruction.ret ]))
  in
  let exit_blocks = if needs_exit then [ Program.block exit_label [] ] else [] in
  Program.make (main_blocks @ fn_blocks @ exit_blocks)

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

let mask_for cfg =
  if cfg.mem_pages >= 2 then Layout.line_mask_two_pages
  else Layout.line_mask_one_page

let masking_prefix cfg (i : Instruction.t) =
  match Instruction.mem_operand i with
  | Some ({ Operand.index = Some r; _ }, _) when not (Reg.equal r Reg.sandbox_base)
    ->
      [ Instruction.binop Opcode.And (Operand.reg r) (Operand.imm64 (mask_for cfg)) ]
  | Some _ | None -> []

(* A register divisor must not be RDX: RDX is the high half of the
   dividend, and any value that makes it a nonzero divisor also makes the
   quotient overflow. The instrumentation substitutes RBX. *)
let fix_rdx_divisor (i : Instruction.t) =
  match (i.Instruction.opcode, i.Instruction.operands) with
  | (Opcode.Div | Opcode.Idiv), [ Operand.Reg (Reg.RDX, w) ] ->
      { i with Instruction.operands = [ Operand.Reg (Reg.RBX, w) ] }
  | _ -> i

let division_prefix (i : Instruction.t) =
  match (i.Instruction.opcode, i.Instruction.operands) with
  | (Opcode.Div | Opcode.Idiv), [ divisor ] ->
      let w =
        match Operand.width divisor with Some w -> w | None -> Width.W64
      in
      let zero_rdx =
        Instruction.mov (Operand.reg ~w Reg.RDX) (Operand.imm 0)
      in
      let halve_rax =
        if i.Instruction.opcode = Opcode.Idiv then
          [ Instruction.binop Opcode.Shr (Operand.reg ~w Reg.RAX) (Operand.imm 1) ]
        else []
      in
      let odd_divisor = Instruction.binop Opcode.Or divisor (Operand.imm 1) in
      (zero_rdx :: halve_rax) @ [ odd_divisor ]
  | _ -> []

let instrument cfg prog =
  Program.map_insts
    (fun i ->
      match i.Instruction.opcode with
      | Opcode.Div | Opcode.Idiv ->
          let i = fix_rdx_divisor i in
          masking_prefix cfg i @ division_prefix i @ [ i ]
      | _ -> masking_prefix cfg i @ [ i ])
    prog

let generate prng cfg =
  let prog = instrument cfg (generate_raw prng cfg) in
  match Program.validate prog with
  | Ok () -> prog
  | Error msg -> invalid_arg ("Generator.generate produced invalid program: " ^ msg)
