(* Differential tests for the decode-once compiled execution engine
   (PR 2): every consumer of a program — the bare emulator, the contract
   model, the speculative CPU simulator, the executor and the whole
   fuzzer — must produce bit-identical results whether the program is
   compiled to closures ([Compiled.of_flat]) or routed step-by-step
   through the reference interpreter ([Compiled.interpreted], i.e.
   [Semantics.step]). Random programs are drawn at several generator
   growth levels across seeds 1-5, and the fuzzer comparison also sweeps
   the model-stage domain pool sizes. *)

open Revizor_isa
open Revizor_emu
open Revizor_uarch
open Revizor

let check = Alcotest.check
let tc = Alcotest.test_case
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string
let int64 = Alcotest.int64
let seeds = [ 1L; 2L; 3L; 4L; 5L ]

(* Generator configurations of increasing diversity, mirroring the
   feedback-driven growth of §5.6. *)
let levels =
  let open Catalog in
  [
    ("AR", [ AR ]);
    ("AR+MEM", [ AR; MEM ]);
    ("AR+MEM+VAR", [ AR; MEM; VAR ]);
    ("AR+MEM+CB", [ AR; MEM; CB ]);
    ("AR+MEM+CB+VAR", [ AR; MEM; CB; VAR ]);
  ]

let gen_program ~seed subsets =
  let prng = Prng.create ~seed in
  let cfg = { Generator.default_cfg with Generator.subsets } in
  Generator.generate prng cfg

(* Every (level, seed) pair, with both engines compiled from the same
   flat program. *)
let each_case f =
  List.iter
    (fun (level, subsets) ->
      List.iter
        (fun seed ->
          let p = gen_program ~seed subsets in
          let flat = Program.flatten_exn p in
          let label = Printf.sprintf "%s/seed %Ld" level seed in
          f ~label ~flat ~compiled:(Compiled.of_flat flat)
            ~interp:(Compiled.interpreted flat))
        seeds)
    levels

let input_for seed = Input.generate (Prng.create ~seed) ~entropy:2

let batch_inputs n seed =
  Input.generate_many (Prng.create ~seed) ~entropy:2 ~n

(* --- descriptor metadata --------------------------------------------- *)

let desc_metadata () =
  each_case (fun ~label ~flat:_ ~compiled ~interp ->
      let code = Compiled.code compiled in
      Array.iteri
        (fun pc (inst : Instruction.t) ->
          let d = compiled.Compiled.descs.(pc) in
          let here fmt = Printf.sprintf ("%s pc %d: " ^^ fmt) label pc in
          check bool (here "inst") true
            (Instruction.equal d.Compiled.d_inst inst);
          check bool (here "serializing")
            (Opcode.is_serializing inst.Instruction.opcode)
            d.Compiled.d_serializing;
          check bool (here "control flow")
            (Opcode.is_control_flow inst.Instruction.opcode)
            d.Compiled.d_control_flow;
          check bool (here "loads") (Instruction.loads inst) d.Compiled.d_loads;
          check bool (here "stores") (Instruction.stores inst)
            d.Compiled.d_stores;
          check bool (here "reads flags")
            (Opcode.reads_flags inst.Instruction.opcode)
            d.Compiled.d_reads_flags;
          check bool (here "writes flags")
            (Opcode.writes_flags inst.Instruction.opcode)
            d.Compiled.d_writes_flags;
          check (Alcotest.list int) (here "srcs")
            (List.map Reg.index (Instruction.regs_read inst))
            (Array.to_list d.Compiled.d_srcs);
          check (Alcotest.list int) (here "dsts")
            (List.map Reg.index (Instruction.regs_written inst))
            (Array.to_list d.Compiled.d_dsts);
          check (Alcotest.list int) (here "ports")
            (Ports.of_instruction inst)
            (Array.to_list d.Compiled.d_ports);
          (* The interpreted engine shares the decoder: descriptors must
             be structurally identical, memory operand included. *)
          let di = interp.Compiled.descs.(pc) in
          check bool (here "interp desc") true (Stdlib.compare d di = 0);
          (* The operand's address is Semantics.mem_addr's. *)
          match (d.Compiled.d_mem, Instruction.mem_operand inst) with
          | None, None -> ()
          | Some mr, Some (m, w) ->
              check bool (here "mem width") true (Width.equal w mr.Compiled.mr_width);
              let st = State.create () in
              List.iteri
                (fun k r ->
                  State.set_reg st r Width.W64
                    (Int64.add 0x7FFF_FFFF_FFFF_FF00L (Int64.of_int (977 * k))))
                Reg.all;
              check int64 (here "mem addr") (Semantics.mem_addr st m)
                (Compiled.mem_addr st mr)
          | _ -> Alcotest.failf "%s: memory operand" (here ""))
        code)

(* --- bare emulation ---------------------------------------------------- *)

(* The compiled program's outcome stream, built from its raw actions the
   way [Semantics.run] builds the reference one. *)
let compiled_run (c : Compiled.t) state =
  let ab = Compiled.abuf_create () in
  let rec go acc steps =
    let pc = state.State.pc in
    if pc < 0 || pc >= Compiled.length c || steps >= 4096 then List.rev acc
    else begin
      let taken =
        Option.map (Flags.eval_cond state.State.flags)
          c.Compiled.descs.(pc).Compiled.d_cond
      in
      Compiled.abuf_clear ab;
      c.Compiled.raws.(pc) state ab;
      let o =
        {
          Semantics.inst = (Compiled.code c).(pc);
          pc;
          accesses = Compiled.abuf_accesses ab;
          taken;
          next = state.State.pc;
        }
      in
      go (o :: acc) (steps + 1)
    end
  in
  go [] 0

(* Raw actions vs [Semantics.run]: same outcome stream (instruction, pc,
   access records in order, branch direction, next pc) and same final
   architectural state. *)
let emulation_identical () =
  each_case (fun ~label ~flat ~compiled ~interp:_ ->
      List.iter
        (fun seed ->
          let input = input_for seed in
          let s_ref = Input.to_state input in
          let s_cmp = Input.to_state input in
          let out_ref = Semantics.run flat s_ref in
          let out_cmp = compiled_run compiled s_cmp in
          check bool
            (Printf.sprintf "%s input %Ld: outcome streams" label seed)
            true
            (Stdlib.compare out_ref out_cmp = 0);
          check bool
            (Printf.sprintf "%s input %Ld: final state" label seed)
            true
            (State.equal_arch s_ref s_cmp))
        seeds)

(* --- every action on edge values ---------------------------------------- *)

(* One step of every catalog spec (AR, MEM, VAR, CB and IND), in each
   operand shape and width, from states that put carry and sign
   boundaries, narrow merges over set upper bits, shift counts of 0, 1,
   width - 1 and width, masked counts and aliased operands in front of
   the compiled engine; against [Semantics.step]. The generated programs
   above reach these only by chance: their inputs set bits 6-13 of each
   register. *)

let edge_values =
  [
    0L; 1L; 0x7FL; 0x80L; 0xFFL; 0x7FFFL; 0x8000L; 0xFFFFL; 0x7FFF_FFFFL;
    0x8000_0000L; 0xFFFF_FFFFL; Int64.max_int; Int64.min_int; -1L;
  ]

(* 0, 1, width - 1 and width at every width, and counts the 5- or 6-bit
   count mask wraps. *)
let shift_counts = edge_values @ [ 7L; 8L; 15L; 16L; 31L; 32L; 33L; 63L; 64L; 65L ]

let cf_words =
  [ Flags.empty; Flags.make ~cf:true ~pf:false ~af:false ~zf:false ~sf:false ~o_f:false ]

let all_flag_words =
  List.init 64 (fun k ->
      let b i = k land (1 lsl i) <> 0 in
      Flags.make ~cf:(b 0) ~pf:(b 1) ~af:(b 2) ~zf:(b 3) ~sf:(b 4) ~o_f:(b 5))

(* Where a value is placed before the step. Memory operands are
   [R14 + RSI], and the value goes in the data word they address. *)
type slot = In_reg of Reg.t | In_mem

let mem_offset = 0x100

(* Every register holds this unless a case says otherwise, so narrow
   writes show whether they merge into set upper bits. *)
let default_reg r =
  if r = Reg.sandbox_base then Layout.sandbox_base
  else if r = Reg.stack_pointer then Layout.stack_top
  else if r = Reg.RSI then Int64.of_int mem_offset
  else if r = Reg.RDX then 0L
  else 0xFEDC_BA98_7654_3210L

let prepare (st : State.t) assign flags =
  List.iter (fun r -> State.set_reg st r Width.W64 (default_reg r)) Reg.all;
  Memory.write_data_word st.State.mem ~word:(mem_offset / 8) 0x0123_4567_89AB_CDEFL;
  List.iter
    (function
      | In_reg r, v -> State.set_reg st r Width.W64 v
      | In_mem, v -> Memory.write_data_word st.State.mem ~word:(mem_offset / 8) v)
    assign;
  st.State.flags <- flags;
  st.State.pc <- 0

(* The spec's instances: an instruction (given the immediate, if its
   shape has one), the immediates to try, and the slots whose values
   vary with their value lists. Two-register shapes run with distinct
   registers and aliased ([XOR RAX, RAX], [XCHG RAX, RAX],
   [SHL CL, CL]); a register DIV divides by RBX, RAX and RDX. *)
let instances (s : Catalog.spec) =
  let op = s.Catalog.opcode and w = s.Catalog.width in
  let rsp_values =
    Layout.stack_top
    :: Int64.add Layout.sandbox_base (Int64.of_int mem_offset)
    :: Layout.sandbox_base :: edge_values
  in
  let fixed inst slots = [ ((fun _ -> inst), [], slots) ] in
  match (op, s.Catalog.shape) with
  | Opcode.Jcc c, _ -> fixed (Instruction.jcc c "next") []
  | Opcode.Jmp, _ -> fixed (Instruction.jmp "next") []
  | Opcode.Call, _ -> fixed (Instruction.call "next") [ (In_reg Reg.RSP, rsp_values) ]
  | Opcode.Ret, _ ->
      fixed Instruction.ret [ (In_reg Reg.RSP, rsp_values); (In_mem, edge_values) ]
  | Opcode.JmpInd, _ ->
      fixed (Instruction.jmp_ind Reg.RAX) [ (In_reg Reg.RAX, edge_values) ]
  | (Opcode.Div | Opcode.Idiv), [ kind ] ->
      let divisors =
        match kind with
        | Catalog.KMem -> [ In_mem ]
        | _ -> [ In_reg Reg.RBX; In_reg Reg.RAX; In_reg Reg.RDX ]
      in
      List.map
        (fun d ->
          let operand =
            match d with
            | In_reg r -> Operand.reg ~w r
            | In_mem -> Operand.sandbox ~w Reg.RSI
          in
          let others =
            [ (In_reg Reg.RAX, edge_values); (In_reg Reg.RDX, [ 0L; 1L; -1L ]) ]
          in
          ( (fun _ -> Instruction.make ~operands:[ operand ] op),
            [],
            (d, edge_values) :: List.filter (fun (sl, _) -> sl <> d) others ))
        divisors
  | _, shape ->
      let counts =
        match op with
        | Opcode.Shl | Opcode.Shr | Opcode.Sar | Opcode.Rol | Opcode.Ror -> true
        | _ -> false
      in
      let values pos = if counts && pos = 1 then shift_counts else edge_values in
      let width_at pos =
        match (pos, s.Catalog.src_width) with 1, Some ws -> ws | _ -> w
      in
      let aliasings =
        match shape with
        | [ Catalog.KReg; (Catalog.KReg | Catalog.KCl) ] -> [ false; true ]
        | _ -> [ false ]
      in
      List.map
        (fun aliased ->
          let reg_at pos =
            match (shape, aliased) with
            | [ _; Catalog.KCl ], true -> Reg.RCX
            | _, true -> Reg.RAX
            | _, false -> if pos = 0 then Reg.RAX else Reg.RBX
          in
          let operand imm pos = function
            | Catalog.KReg -> Operand.reg ~w:(width_at pos) (reg_at pos)
            | Catalog.KMem -> Operand.sandbox ~w:(width_at pos) Reg.RSI
            | Catalog.KCl -> Operand.Reg (Reg.RCX, Width.W8)
            | Catalog.KImm -> Operand.imm64 imm
          in
          let slots =
            List.fold_left
              (fun acc (pos, kind) ->
                let slot =
                  match kind with
                  | Catalog.KReg -> Some (In_reg (reg_at pos))
                  | Catalog.KCl -> Some (In_reg Reg.RCX)
                  | Catalog.KMem -> Some In_mem
                  | Catalog.KImm -> None
                in
                match slot with
                | Some sl when not (List.mem_assoc sl acc) -> acc @ [ (sl, values pos) ]
                | Some _ | None -> acc)
              []
              (List.mapi (fun pos k -> (pos, k)) shape)
          in
          let imms =
            List.concat
              (List.mapi (fun pos k -> if k = Catalog.KImm then values pos else []) shape)
          in
          ( (fun imm -> Instruction.make ~operands:(List.mapi (operand imm) shape) op),
            imms,
            slots ))
        aliasings

(* Every combination of the slots' values. *)
let rec grid = function
  | [] -> [ [] ]
  | (sl, vs) :: rest ->
      let tails = grid rest in
      List.concat_map (fun v -> List.map (fun t -> (sl, v) :: t) tails) vs

type step_result = (Semantics.access list, string) result

let step_ref flat st : step_result =
  match Semantics.step flat st with
  | o -> Ok o.Semantics.accesses
  | exception e -> Error (Printexc.to_string e)

let step_act (act : Compiled.raw) ab st : step_result =
  Compiled.abuf_clear ab;
  match act st ab with
  | () -> Ok (Compiled.abuf_accesses ab)
  | exception e -> Error (Printexc.to_string e)

(* On a fault, the compiled buffer may hold the faulting instruction's
   earlier accesses: consumers truncate them, so only the exception is
   compared. *)
let same_result (a : step_result) (b : step_result) =
  match (a, b) with
  | Ok x, Ok y -> Stdlib.compare x y = 0
  | Error x, Error y -> String.equal x y
  | Ok _, Error _ | Error _, Ok _ -> false

let show_case inst assign flags =
  Format.asprintf "%s with %s, flags %a" (Instruction.to_string inst)
    (String.concat ", "
       (List.map
          (fun (sl, v) ->
            Printf.sprintf "%s=0x%Lx"
              (match sl with In_reg r -> Reg.name r Width.W64 | In_mem -> "mem")
              v)
          assign))
    Flags.pp flags

let edge_steps () =
  let s_ref = State.create () and s_raw = State.create () and s_fused = State.create () in
  List.iter
    (fun st ->
      Memory.fill st.State.mem ~f:(fun off -> ((off * 37) + 11) land 0xFF))
    [ s_ref; s_raw; s_fused ];
  let slots = Array.init 3 (fun _ -> State.slot ()) and ab = Compiled.abuf_create () in
  let kill = Instruction.binop Opcode.Add (Operand.reg Reg.RDI) (Operand.reg Reg.RDI) in
  let steps = ref 0 and elided = ref 0 in
  (* [inst] then a flag killer: [fused.(0)] is the dead-flag variant
     when [inst] writes flags. *)
  let compile inst =
    let flat =
      Program.flatten_exn
        (Program.make
           [
             Program.block "entry" [ inst; kill ];
             Program.block "next" [ Instruction.nop ];
           ])
    in
    (inst, flat, Compiled.of_flat flat)
  in
  let run (inst, flat, (c : Compiled.t)) assign flags =
    let here what = Printf.sprintf "%s: %s" (show_case inst assign flags) what in
    (* Each state is prepared, saved, stepped and undone, so every case
       starts from the same memory image. *)
    let start k st =
      prepare st assign flags;
      State.save st slots.(k)
    in
    start 0 s_ref;
    start 1 s_raw;
    let r_ref = step_ref flat s_ref in
    let r_raw = step_act c.Compiled.raws.(0) ab s_raw in
    incr steps;
    if not (same_result r_ref r_raw) then Alcotest.fail (here "accesses or exception");
    if not (State.equal_arch s_ref s_raw && s_ref.State.pc = s_raw.State.pc) then
      Alcotest.failf "%s@.reference: %a@.compiled: %a" (here "state") State.pp s_ref
        State.pp s_raw;
    if c.Compiled.fused.(0) != c.Compiled.raws.(0) then begin
      incr elided;
      start 2 s_fused;
      let r_fused = step_act c.Compiled.fused.(0) ab s_fused in
      if not (same_result r_ref r_fused) then
        Alcotest.fail (here "fused: accesses or exception");
      if
        not
          (List.for_all
             (fun r ->
               Int64.equal
                 (State.get_reg s_ref r Width.W64)
                 (State.get_reg s_fused r Width.W64))
             Reg.all
          && Memory.equal s_ref.State.mem s_fused.State.mem
          && s_ref.State.pc = s_fused.State.pc)
      then Alcotest.fail (here "fused: registers, memory or pc");
      State.undo s_fused slots.(2)
    end;
    State.undo s_ref slots.(0);
    State.undo s_raw slots.(1)
  in
  List.iter
    (fun (s : Catalog.spec) ->
      let reads_flags = Opcode.reads_flags s.Catalog.opcode in
      List.iter
        (fun (make, imms, slots) ->
          let imms = if imms = [] then [ 0L ] else imms in
          List.iter
            (fun imm ->
              let inst = compile (make imm) in
              List.iter
                (fun assign -> List.iter (run inst assign) cf_words)
                (grid slots);
              (* One representative assignment under every flag word (for
                 flag readers) and with its memory operand straddling the
                 sandbox's end or outside it. *)
              let rep =
                List.mapi
                  (fun k (sl, vs) -> (sl, List.nth vs ((k + 1) mod List.length vs)))
                  slots
              in
              if reads_flags then List.iter (run inst rep) all_flag_words;
              if List.mem_assoc In_mem slots then
                List.iter
                  (fun rsi -> run inst ((In_reg Reg.RSI, rsi) :: rep) Flags.empty)
                  [ Int64.of_int (Layout.sandbox_size - 4); -1L; Int64.min_int ])
            imms)
        (instances s))
    Catalog.(specs [ AR; MEM; VAR; CB; IND ]);
  check bool "every spec stepped" true (!steps > 100_000);
  check bool "dead-flag variants compared" true (!elided > 10_000)

(* --- allocation --------------------------------------------------------- *)

(* A straight-line program of every body spec of the given subsets, on
   RAX..RDX and [R14 + RSI]. *)
let spec_program subsets =
  let inst (s : Catalog.spec) =
    let w = s.Catalog.width in
    let operand pos = function
      | Catalog.KReg ->
          let w = match (pos, s.Catalog.src_width) with 1, Some ws -> ws | _ -> w in
          Operand.reg ~w (List.nth Reg.gen_pool (pos + 1))
      | Catalog.KMem ->
          let w = match (pos, s.Catalog.src_width) with 1, Some ws -> ws | _ -> w in
          Operand.sandbox ~w Reg.RSI
      | Catalog.KCl -> Operand.Reg (Reg.RCX, Width.W8)
      | Catalog.KImm -> Operand.imm 0x35
    in
    Instruction.make ~operands:(List.mapi operand s.Catalog.shape) s.Catalog.opcode
  in
  Compiled.of_program_exn (Program.of_insts (List.map inst (Catalog.body_specs subsets)))

(* Minor words allocated by [passes] runs of the whole program, each
   saved and undone like a model or executor run, and the steps run. *)
let words_allocated (c : Compiled.t) ~passes =
  let st = State.create () in
  State.set_reg st Reg.RSI Width.W64 (Int64.of_int mem_offset);
  let slot = State.slot () and ab = Compiled.abuf_create () in
  let raws = c.Compiled.raws in
  let n = Array.length raws in
  let pass () =
    State.save st slot;
    for pc = 0 to n - 1 do
      Compiled.abuf_clear ab;
      raws.(pc) st ab
    done;
    State.undo st slot
  in
  (* grows the journal and the access buffer to their working size *)
  pass ();
  let before = Gc.minor_words () in
  for _ = 1 to passes do
    pass ()
  done;
  (Gc.minor_words () -. before, passes * n)

(* Register and immediate forms at all four widths, INC/DEC/NEG/IMUL,
   shifts and rotates included: their values stay unboxed from register
   file to register file, so not one word is allocated. *)
let register_steps_allocate_nothing () =
  let c = spec_program [ Catalog.AR ] in
  let words, _ = words_allocated c ~passes:10_000 in
  check (Alcotest.float 0.) "minor words" 0. words

let memory_steps_allocate_little () =
  let c = spec_program [ Catalog.MEM ] in
  let words, steps = words_allocated c ~passes:1_000 in
  let w = words /. float steps in
  if w >= 3. then Alcotest.failf "%.2f words per memory step" w

(* DIV and IDIV of RDX:RAX by RBX at every width, each after RDX is
   zeroed and RAX and RBX are set: the quotient, the remainder and the
   fault checks all stay unboxed. *)
let division_steps_allocate_nothing () =
  let mov r v = Instruction.make ~operands:[ Operand.reg r; Operand.imm v ] Opcode.Mov in
  let division (s : Catalog.spec) =
    [
      mov Reg.RDX 0;
      mov Reg.RAX 0x7a5c3;
      mov Reg.RBX 7;
      Instruction.make ~operands:[ Operand.reg ~w:s.Catalog.width Reg.RBX ]
        s.Catalog.opcode;
    ]
  in
  let specs =
    List.filter
      (fun (s : Catalog.spec) -> s.Catalog.shape = [ Catalog.KReg ])
      (Catalog.body_specs [ Catalog.VAR ])
  in
  check int "DIV and IDIV at 16, 32 and 64 bits" 6 (List.length specs);
  let c =
    Compiled.of_program_exn (Program.of_insts (List.concat_map division specs))
  in
  let words, _ = words_allocated c ~passes:10_000 in
  check (Alcotest.float 0.) "minor words" 0. words

(* [Cpu.run] over the MEM forms (loads, stores and read-modify-writes,
   every one a per-instruction memory step) on a patched Skylake with
   every page accessed, so no run starts an episode: the effective
   address, the cache lookup, the fill buffer and the store buffer all
   stay unboxed. *)
let cpu_memory_steps_allocate_nothing () =
  let c = spec_program [ Catalog.MEM ] in
  let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
  let st = State.create () in
  State.set_reg st Reg.RSI Width.W64 (Int64.of_int mem_offset);
  let slot = State.slot () in
  let pass () =
    State.save st slot;
    Cpu.run cpu c st;
    State.undo st slot
  in
  pass ();
  check int "no episode" 0 (List.length (Cpu.events cpu));
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    pass ()
  done;
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.)
    (Printf.sprintf "minor words over 1000 runs of %d memory steps"
       (Compiled.length c))
    0. words

(* --- contract model ---------------------------------------------------- *)

let contracts =
  [ Contract.ct_seq; Contract.ct_cond; Contract.ct_bpas; Contract.arch_seq ]

let model_identical () =
  each_case (fun ~label ~flat:_ ~compiled ~interp ->
      List.iter
        (fun contract ->
          let input = input_for 11L in
          let rc = Model.run contract compiled input in
          let ri = Model.run contract interp input in
          let here s =
            Printf.sprintf "%s %s: %s" label (Contract.name contract) s
          in
          check bool (here "ctrace") true
            (Ctrace.equal rc.Model.ctrace ri.Model.ctrace);
          check bool (here "faulted") ri.Model.faulted rc.Model.faulted;
          check bool (here "stream") true
            (Stdlib.compare rc.Model.stream ri.Model.stream = 0))
        contracts)

(* --- speculative CPU simulator ---------------------------------------- *)

(* [Cpu.run] executes the timing-plain runs of a compiled program's plan
   in one loop; an interpreted program's plan is empty, so the same call
   takes the per-instruction path at every step. Comparing the two
   engines therefore checks the timing loop against the reference path:
   on every target's microarchitecture and threat (Targets 1-8), plus
   Target 5's core under Port-Contention so that port counts reach the
   trace. *)
let cpu_setups =
  List.map (fun (t : Target.t) -> (t.Target.name, t)) Target.all
  @ [
      ( "Target 5, Port-Contention",
        { Target.target5 with Target.threat = Attack.port_contention } );
    ]

(* The target's generator configuration grown to its cap. *)
let capped_gen (target : Target.t) =
  let rec go cfg =
    let cfg' = Generator.grow cfg in
    if cfg' = cfg then cfg else go cfg'
  in
  go (Target.fuzzer_config Contract.ct_seq target).Fuzzer.gen_cfg

let last_word =
  Int64.add Layout.sandbox_base
    (Int64.of_int ((Layout.data_pages * Layout.page_size) - 8))

(* One observed run, as the executor makes it: the input's data in the
   fill buffer, the threat's prepare/observe pair around [Cpu.run]. A
   raised exception is part of the outcome. *)
let observe_run ?max_steps cpu (target : Target.t) prog template =
  let state = State.copy template in
  Cpu.set_fill_buffer cpu (Memory.read state.State.mem ~addr:last_word Width.W64);
  let htrace =
    match
      Attack.observe cpu target.Target.threat (fun () ->
          Cpu.run ?max_steps cpu prog state)
    with
    | h -> Ok h
    | exception e -> Error (Printexc.to_string e)
  in
  (state, Cpu.events cpu, Cpu.port_counts cpu, htrace, Cpu.fill_buffer cpu)

(* A primed session: every template in turn on one CPU, so predictor,
   cache and page-bit state carry from run to run. *)
let session ?max_steps target prog templates =
  let cpu = Cpu.create target.Target.uarch in
  Array.map (observe_run ?max_steps cpu target prog) templates

(* Registers and flags no observation reads may differ at the end of a
   compiled run ([Compiled.t]'s [dead_len] and [fused]); memory and pc
   may not. *)
let same_run ~here (s_c, ev_c, pc_c, h_c, fb_c) (s_i, ev_i, pc_i, h_i, fb_i) =
  check bool (here "memory and pc") true
    (Memory.equal s_c.State.mem s_i.State.mem && s_c.State.pc = s_i.State.pc);
  check bool (here "speculation events") true (Stdlib.compare ev_c ev_i = 0);
  check (Alcotest.array int) (here "port counts") pc_i pc_c;
  check bool (here "htrace") true
    (match (h_c, h_i) with
    | Ok a, Ok b -> Htrace.equal a b
    | Error a, Error b -> String.equal a b
    | Ok _, Error _ | Error _, Ok _ -> false);
  check int64 (here "fill buffer") fb_i fb_c

let same_session ~label ?max_steps target ~compiled ~interp templates =
  let c = session ?max_steps target compiled templates in
  let i = session ?max_steps target interp templates in
  Array.iteri
    (fun k r ->
      same_run ~here:(Printf.sprintf "%s input %d: %s" label k) r i.(k))
    c;
  c

(* Whether a run stopped by [max_steps] at [pc] stopped inside a
   timing-plain run, after at least one of its steps. *)
let cut_mid_run (prog : Compiled.t) pc =
  let len = prog.Compiled.plan.Compiled.plain_len in
  pc > 0 && pc < Array.length len && len.(pc) > 0 && len.(pc - 1) = len.(pc) + 1

(* Every [max_steps] from 1 until the run is no longer cut (or raises),
   on a fresh CPU each; returns how many of the cuts fell inside a
   timing-plain run. *)
let sweep_max_steps ~label target ~compiled ~interp template =
  let mid = ref 0 in
  let rec go m =
    let c = observe_run ~max_steps:m (Cpu.create target.Target.uarch) target compiled template in
    let i = observe_run ~max_steps:m (Cpu.create target.Target.uarch) target interp template in
    same_run ~here:(Printf.sprintf "%s max_steps %d: %s" label m) c i;
    let s, _, _, h, _ = c in
    let pc = s.State.pc in
    if Result.is_ok h && pc >= 0 && pc < Compiled.length compiled then begin
      if cut_mid_run compiled pc then incr mid;
      go (m + 1)
    end
  in
  go 1;
  !mid

let cpu_identical () =
  let mid = ref 0 in
  List.iter
    (fun (name, (target : Target.t)) ->
      let gen = capped_gen target in
      List.iter
        (fun seed ->
          let flat = Program.flatten_exn (Generator.generate (Prng.create ~seed) gen) in
          let compiled = Compiled.of_flat flat and interp = Compiled.interpreted flat in
          let label = Printf.sprintf "%s/seed %Ld" name seed in
          let templates = Input.templates (batch_inputs 20 (Int64.add seed 23L)) in
          ignore (same_session ~label target ~compiled ~interp templates);
          mid := !mid + sweep_max_steps ~label target ~compiled ~interp templates.(0))
        seeds)
    cpu_setups;
  check bool "some max_steps cut a timing-plain run in the middle" true (!mid > 0)

(* Hand-written edge cases of the timing loop, on every setup, each as a
   primed session and a [max_steps] sweep:
   - a store-bypass (Targets 1-3), an assisted-load (Targets 7, 8) and an
     assisted-store (Target 8) episode, each starting at a load right
     after a timing-plain run that holds a dead instruction, and right
     after a flag write that [fused] elides whose killer lies past the
     load;
   - a timing-plain run entered mid-way by a taken Jcc, at a stretch of
     dead instructions. *)
let mask x = Instruction.binop Opcode.And (Operand.reg x) (Operand.imm64 Layout.line_mask_one_page)
let alu op x n = Instruction.binop op (Operand.reg x) (Operand.imm n)
let load x m = Instruction.mov (Operand.reg x) m
let at x = Operand.sandbox x
let fixed disp = Operand.mem ~base:Reg.sandbox_base ~disp ()

let bypass_program =
  Program.of_insts
    [
      alu Opcode.Add Reg.RBX 1 (* 0: dead *);
      mask Reg.RAX (* 1: its flag write is elided: 3 kills it *);
      load Reg.RDI (fixed 128) (* 2: first page-0 access: assisted load *);
      alu Opcode.And Reg.RDI 0;
      Instruction.binop Opcode.Add (Operand.reg Reg.RDI) (Operand.reg Reg.RAX);
      Instruction.mov (at Reg.RDI) (Operand.reg Reg.RCX) (* 5: late address *);
      alu Opcode.Add Reg.RDX 1 (* 6: dead *);
      alu Opcode.Sub Reg.RSI 2 (* 7: dead: only 9, itself dead, reads RSI *);
      load Reg.RCX (at Reg.RAX) (* 8: bypasses the store at 5 *);
      Instruction.binop Opcode.Xor (Operand.reg Reg.RSI) (Operand.reg Reg.RSI);
      mask Reg.RCX;
      load Reg.RDX (at Reg.RCX) (* transmits the stale value *);
      Instruction.cmov Cond.Z (Operand.reg Reg.RDX) (Operand.reg Reg.RCX);
    ]

let assisted_store_program =
  Program.of_insts
    [
      alu Opcode.Add Reg.RBX 1 (* dead *);
      mask Reg.RAX (* its flag write is elided *);
      Instruction.mov (at Reg.RAX) (Operand.reg Reg.RCX) (* assisted store *);
      alu Opcode.Add Reg.RDX 1 (* dead *);
      alu Opcode.Sub Reg.RSI 2 (* dead *);
      load Reg.RCX (at Reg.RAX) (* forwarding fails on Coffee Lake *);
      Instruction.binop Opcode.Xor (Operand.reg Reg.RSI) (Operand.reg Reg.RSI);
      mask Reg.RCX;
      load Reg.RDX (at Reg.RCX);
      Instruction.setcc Cond.Z (Operand.reg ~w:Width.W8 Reg.RBX);
    ]

let mid_entry_program =
  Program.make
    [
      Program.block "main"
        [
          load Reg.RCX (fixed 0);
          Instruction.binop Opcode.Cmp (Operand.reg Reg.RCX) (Operand.imm 64);
          Instruction.jcc Cond.BE "mid";
        ];
      Program.block "pre"
        [
          alu Opcode.Add Reg.RBX 1;
          Instruction.binop Opcode.Imul (Operand.reg Reg.RBX) (Operand.reg Reg.RBX);
        ];
      Program.block "mid"
        [
          alu Opcode.Add Reg.RDX 1 (* dead, like the next three *);
          alu Opcode.Sub Reg.RSI 2;
          Instruction.binop Opcode.Xor (Operand.reg Reg.RDI) (Operand.reg Reg.RDI);
          Instruction.setcc Cond.Z (Operand.reg ~w:Width.W8 Reg.RAX);
          Instruction.unop Opcode.Neg (Operand.reg Reg.RBX);
          mask Reg.RBX;
          load Reg.RDX (at Reg.RBX);
        ];
    ]

let timing_edge_cases () =
  let kinds = ref [] in
  List.iter
    (fun (pname, program) ->
      let flat = Program.flatten_exn program in
      let compiled = Compiled.of_flat flat and interp = Compiled.interpreted flat in
      List.iter
        (fun (name, (target : Target.t)) ->
          let label = Printf.sprintf "%s on %s" pname name in
          let templates = Input.templates (batch_inputs 20 5L) in
          Array.iter
            (fun (_, events, _, _, _) ->
              List.iter (fun (e : Cpu.event) -> kinds := e.Cpu.kind :: !kinds) events)
            (same_session ~label target ~compiled ~interp templates);
          ignore (sweep_max_steps ~label target ~compiled ~interp templates.(0)))
        cpu_setups)
    [
      ("bypass", bypass_program);
      ("assisted store", assisted_store_program);
      ("mid-run entry", mid_entry_program);
    ];
  List.iter
    (fun kind ->
      check bool (Cpu.kind_to_string kind ^ " episodes ran") true (List.mem kind !kinds))
    Cpu.
      [ Store_bypass; Assist_load_forward; Assist_store_forward; Branch_mispredict ]

(* The plan itself: timing-plain runs stop at memory operands, Jcc/Jmp,
   LFENCE and DIV; the port suffix sums count every instruction's µops on
   each tracked port, and every µop of a timing-plain step is tracked; an
   interpreted program's plan is empty. *)
let check_plan ~label (prog : Compiled.t) =
  let plan = prog.Compiled.plan in
  let n = Compiled.length prog in
  let ports = plan.Compiled.plain_ports in
  let np = Array.length ports in
  check int (label ^ ": plain_len size") n (Array.length plan.Compiled.plain_len);
  check int (label ^ ": port_sums size") ((n + 1) * np)
    (Array.length plan.Compiled.port_sums);
  let uops pc = Ports.of_instruction (Compiled.code prog).(pc) in
  for pc = 0 to n - 1 do
    if plan.Compiled.plain_len.(pc) > 0 then
      List.iter
        (fun p ->
          if not (Array.mem p ports) then
            Alcotest.failf "%s pc %d: port %d of a timing-plain step is not tracked"
              label pc p)
        (uops pc)
  done;
  let sum a b j =
    plan.Compiled.port_sums.((a * np) + j) - plan.Compiled.port_sums.((b * np) + j)
  in
  for a = 0 to n do
    for b = a to n do
      Array.iteri
        (fun j p ->
          let expected = ref 0 in
          for pc = a to b - 1 do
            List.iter (fun q -> if q = p then incr expected) (uops pc)
          done;
          if sum a b j <> !expected then
            Alcotest.failf "%s: port %d over [%d, %d): %d, expected %d" label p a b
              (sum a b j) !expected)
        ports
    done
  done

let plan_shape () =
  let open Instruction in
  let prog =
    Compiled.of_program_exn
      (Program.make
         [
           Program.block "main"
             [
               alu Opcode.Add Reg.RAX 1 (* 0 *);
               binop Opcode.Imul (Operand.reg Reg.RBX) (Operand.reg Reg.RCX);
               load Reg.RDX (at Reg.RAX) (* 2: memory operand *);
               alu Opcode.Sub Reg.RAX 1;
               jcc Cond.Z "l" (* 4 *);
               binop Opcode.Xor (Operand.reg Reg.RBX) (Operand.reg Reg.RBX);
               lfence (* 6 *);
               alu Opcode.Or Reg.RCX 1;
               div (Operand.reg Reg.RBX) (* 8 *);
               unop Opcode.Neg (Operand.reg Reg.RDX);
               jmp "l" (* 10 *);
             ];
           Program.block "l"
             [
               alu Opcode.And Reg.RAX 3;
               mov (at Reg.RAX) (Operand.reg Reg.RBX) (* 12: store *);
               unop Opcode.Not (Operand.reg Reg.RAX);
             ];
         ])
  in
  check (Alcotest.array int) "run lengths"
    [| 2; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1 |]
    prog.Compiled.plan.Compiled.plain_len;
  check (Alcotest.array int) "tracked ports: ALU and multiply" [| 0; 1 |]
    prog.Compiled.plan.Compiled.plain_ports;
  check_plan ~label:"hand-written" prog;
  (* The IMUL's flags die only past the load, at the SUB. *)
  check bool "pc 1 elided by fused" true
    (prog.Compiled.fused.(1) != prog.Compiled.raws.(1));
  each_case (fun ~label ~flat:_ ~compiled ~interp ->
      check_plan ~label compiled;
      let plan = interp.Compiled.plan in
      check bool (label ^ ": interpreted plan is empty") true
        (Array.length plan.Compiled.plain_len = 0
        && Array.length plan.Compiled.plain_ports = 0
        && Array.length plan.Compiled.port_sums = 0))

(* --- observation liveness ---------------------------------------------- *)

(* One vector per rule of [Compiled.of_flat]'s liveness analysis: the pcs
   it marks dead ([dead_len] positive) and the pcs whose flag write
   [fused] elides. [use x] is a load whose address reads [x]; its own
   result goes nowhere. *)
let use x = load Reg.RDI (at x)
let reg ?w r = Operand.reg ?w r
let mov_i ?w r n = Instruction.mov (reg ?w r) (Operand.imm n)

let liveness_of program =
  let c = Compiled.of_program_exn program in
  let pcs p = List.filter p (List.init (Compiled.length c) Fun.id) in
  ( pcs (fun pc -> c.Compiled.dead_len.(pc) > 0),
    pcs (fun pc -> c.Compiled.fused.(pc) != c.Compiled.raws.(pc)) )

let expect ?elided what program ~dead =
  let dead', elided' = liveness_of program in
  check (Alcotest.list int) (what ^ ": dead pcs") dead dead';
  Option.iter (fun e -> check (Alcotest.list int) (what ^ ": elided flag writes") e elided') elided

(* Blocks "main" then "l". *)
let two main l = Program.make [ Program.block "main" main; Program.block "l" l ]

let never_elided () =
  let open Instruction in
  let raising =
    [
      binop Opcode.Xchg (reg Reg.RAX) (Operand.imm 5);
      mov (Operand.imm 1) (reg Reg.RAX);
      make Opcode.Add;
      cmov Cond.Z (at Reg.RAX) (reg Reg.RBX);
    ]
  in
  expect "memory operands, fences, a division, raising shapes"
    (Program.of_insts
       ([
          load Reg.RAX (at Reg.RBX) (* 0: a load whose result is dead *);
          binop Opcode.Add (at Reg.RBX) (reg Reg.RCX);
          lfence;
          mfence;
          div (reg Reg.RBX) (* 4: its RAX and RDX are dead *);
          binop Opcode.Cmp (at Reg.RBX) (Operand.imm 1);
        ]
       @ raising))
    ~dead:[];
  expect "control flow"
    (two [ mov_i Reg.RSP 64; call "l"; jmp "l" ] [ jmp_ind Reg.RAX; ret ])
    ~dead:[];
  (* every other register-only result nobody reads, NOP included *)
  let c =
    Compiled.of_program_exn
      (Program.of_insts
         [
           mov_i Reg.RAX 1;
           binop Opcode.Add (reg Reg.RBX) (reg Reg.RAX);
           binop Opcode.Imul (reg Reg.RCX) (reg Reg.RBX);
           nop;
           use Reg.RDX;
           setcc Cond.Z (reg ~w:Width.W8 Reg.RCX);
           binop Opcode.Xchg (reg Reg.RAX) (reg Reg.RBX);
         ])
  in
  check (Alcotest.array int) "stretch lengths" [| 4; 3; 2; 1; 0; 2; 1 |]
    c.Compiled.dead_len

(* The vectors whose values flow into an address; the analysis-apart
   test below also runs them. *)
let merge_8 =
  Program.of_insts [ mov_i Reg.RAX 1; mov_i ~w:Width.W8 Reg.RAX 2; use Reg.RAX ]

let merge_16 =
  Program.of_insts
    [
      mov_i Reg.RAX 1;
      Instruction.binop Opcode.Movzx (reg ~w:Width.W16 Reg.RAX) (reg ~w:Width.W8 Reg.RBX);
      use Reg.RAX;
    ]

let merge_cmov =
  Program.of_insts
    [
      mov_i Reg.RAX 1;
      alu Opcode.Cmp Reg.RBX 0;
      Instruction.cmov Cond.Z (reg Reg.RAX) (reg Reg.RCX);
      use Reg.RAX;
    ]

let merge_setcc =
  Program.of_insts
    [
      mov_i Reg.RAX 1;
      alu Opcode.Cmp Reg.RBX 0;
      Instruction.setcc Cond.Z (reg ~w:Width.W8 Reg.RAX);
      use Reg.RAX;
    ]

let kill_rax = mov_i ~w:Width.W32 Reg.RAX 0

let taken_edge_only =
  two
    [ mov_i Reg.RAX 1; alu Opcode.Cmp Reg.RBX 0; Instruction.jcc Cond.Z "l"; kill_rax ]
    [ use Reg.RAX ]

let fall_through_only =
  two
    [ mov_i Reg.RAX 1; alu Opcode.Cmp Reg.RBX 0; Instruction.jcc Cond.Z "l"; use Reg.RAX ]
    [ kill_rax; use Reg.RAX ]

let flowing_vectors =
  [ merge_8; merge_16; merge_cmov; merge_setcc; taken_edge_only; fall_through_only ]

let liveness_uses () =
  let open Instruction in
  expect "a source" (Program.of_insts [ mov_i Reg.RAX 1; mov (reg Reg.RBX) (reg Reg.RAX); use Reg.RBX ]) ~dead:[];
  expect "an 8-bit write merges" merge_8 ~dead:[];
  expect "a 16-bit write merges" merge_16 ~dead:[];
  expect "a 32-bit write does not"
    (Program.of_insts [ mov_i Reg.RAX 1; kill_rax; use Reg.RAX ])
    ~dead:[ 0 ];
  expect "CMOV reads its destination" merge_cmov ~dead:[];
  expect "SETcc reads its destination" merge_setcc ~dead:[]

(* [ADD RBX, 1] at pc 0 writes only flags anyone could read; [reader]
   at pc 1 decides whether they are. *)
let flags_reach what reader tail ~dead =
  expect what (two ([ alu Opcode.Add Reg.RBX 1 ] @ reader) tail) ~dead

let liveness_flag_uses () =
  let open Instruction in
  flags_reach "ADC" [ alu Opcode.Adc Reg.RCX 0; use Reg.RCX ] [] ~dead:[];
  flags_reach "SBB" [ alu Opcode.Sbb Reg.RCX 0; use Reg.RCX ] [] ~dead:[];
  flags_reach "CMOV" [ cmov Cond.Z (reg Reg.RCX) (reg Reg.RDX); use Reg.RCX ] [] ~dead:[];
  flags_reach "SETcc" [ setcc Cond.B (reg ~w:Width.W8 Reg.RCX); use Reg.RCX ] [] ~dead:[];
  flags_reach "Jcc" [ jcc Cond.Z "l" ] [ use Reg.RDX ] ~dead:[];
  (* CF of pc 0 reaches the JC through the partial writers *)
  List.iter
    (fun (name, partial) -> flags_reach name [ partial; jcc Cond.B "l" ] [ use Reg.RDX ] ~dead:[])
    [
      ("INC", unop Opcode.Inc (reg Reg.RCX));
      ("DEC", unop Opcode.Dec (reg Reg.RCX));
      ("SHL by CL", binop Opcode.Shl (reg Reg.RDX) (Operand.Reg (Reg.RCX, Width.W8)));
      ("SAR", alu Opcode.Sar Reg.RDX 3);
      ("ROR", alu Opcode.Ror Reg.RDX 1);
    ];
  (* a flag write nothing reads is elided, whole instruction or not *)
  expect "flag word dead at the end" ~elided:[ 0; 1 ]
    (Program.of_insts [ alu Opcode.Add Reg.RAX 1; alu Opcode.Sub Reg.RBX 1; use Reg.RAX ])
    ~dead:[ 1 ]

let liveness_kills () =
  let open Instruction in
  expect "32/64-bit destinations; XCHG writes both registers"
    (Program.of_insts
       [
         mov_i Reg.RAX 1;
         mov_i Reg.RBX 2;
         binop Opcode.Xchg (reg Reg.RAX) (reg Reg.RBX);
         mov_i ~w:Width.W32 Reg.RAX 3;
         mov_i Reg.RBX 4;
         use Reg.RAX;
         use Reg.RBX;
       ])
    ~dead:[ 0; 1; 2 ];
  (* pc 0's flags die at a full overwrite before the Jcc reads them *)
  List.iter
    (fun (name, killer) ->
      flags_reach name [ killer; jcc Cond.Z "l" ] [ use Reg.RCX ] ~dead:[ 0 ])
    [
      ("ADD", alu Opcode.Add Reg.RCX 1);
      ("SUB", alu Opcode.Sub Reg.RCX 1);
      ("AND", alu Opcode.And Reg.RCX 1);
      ("OR", alu Opcode.Or Reg.RCX 1);
      ("XOR", alu Opcode.Xor Reg.RCX 1);
      ("CMP", alu Opcode.Cmp Reg.RCX 1);
      ("TEST", alu Opcode.Test Reg.RCX 1);
      ("IMUL", binop Opcode.Imul (reg Reg.RCX) (reg Reg.RDX));
      ("NEG", unop Opcode.Neg (reg Reg.RCX));
    ]

let liveness_observed () =
  let open Instruction in
  expect "a memory operand's base and index"
    (Program.of_insts
       [
         mov_i Reg.RAX 1;
         mov_i Reg.RBX 2;
         load Reg.RCX (Operand.mem ~base:Reg.RAX ~index:Reg.RBX ~scale:8 ());
       ])
    ~dead:[];
  expect "a Jcc's flags" (two [ alu Opcode.Cmp Reg.RAX 0; jcc Cond.Z "l" ] [ mov_i Reg.RCX 1 ])
    ~dead:[ 2 ];
  expect "JmpInd's register" (Program.of_insts [ mov_i Reg.RAX 2; jmp_ind Reg.RAX ]) ~dead:[];
  expect "CALL's RSP" (two [ alu Opcode.Sub Reg.RSP 8; call "l" ] [ mov_i Reg.RCX 1 ]) ~dead:[ 2 ];
  expect "RET's RSP" (Program.of_insts [ alu Opcode.Add Reg.RSP 8; ret ]) ~dead:[];
  expect "a division's divisor, RAX and RDX"
    (Program.of_insts [ mov_i Reg.RAX 7; mov_i Reg.RDX 0; mov_i Reg.RBX 3; div (reg Reg.RBX) ])
    ~dead:[]

let liveness_successors () =
  let open Instruction in
  expect "live on the taken edge only" taken_edge_only ~dead:[];
  expect "live on the fall-through only" fall_through_only ~dead:[];
  expect "JMP: its target, not the next pc"
    (two [ mov_i Reg.RAX 1; jmp "l"; use Reg.RAX ] [ kill_rax; use Reg.RAX ])
    ~dead:[ 0 ];
  expect "JMP: its target"
    (two [ mov_i Reg.RAX 1; jmp "l"; kill_rax ] [ use Reg.RAX ])
    ~dead:[];
  expect "CALL: its target" (two [ mov_i Reg.RAX 1; call "l" ] [ use Reg.RAX ]) ~dead:[];
  (* RCX is read only at pc 2, which only a RET can reach; the callee
     overwrites RCX first, yet the CALL keeps it live *)
  expect "CALL: every pc, through its RET"
    (Program.make
       [
         Program.block "main" [ mov_i Reg.RCX 1; call "f"; use Reg.RCX ];
         Program.block "f" [ mov_i ~w:Width.W32 Reg.RCX 0; ret ];
       ])
    ~dead:[];
  expect "RET: every pc" (Program.of_insts [ mov_i Reg.RAX 1; ret; use Reg.RAX ]) ~dead:[];
  expect "JmpInd: every pc"
    (Program.of_insts [ mov_i Reg.RBX 1; jmp_ind Reg.RCX; use Reg.RBX ])
    ~dead:[];
  expect "nothing after the last pc" ~elided:[ 1 ]
    (Program.of_insts [ use Reg.RBX; alu Opcode.Add Reg.RAX 1 ])
    ~dead:[ 1 ]

(* The analysis apart from the engines' skipping: [interpreted flat],
   which computes every value, with each value [of_flat flat] calls dead
   overwritten right after it is computed — every register a dead pc
   writes, and the flag word where the pc writes it; at a pc whose flag
   write [fused] elides, the flag word only. Registers get their
   complement; the flag word loses every flag at odd pcs and every flag
   but OF at even ones (complementing all six would leave SF <> OF, and
   so L/GE, unchanged). If the analysis called a value dead that an
   address, a branch, a division or a store reads, some contract trace
   or measurement would change. Generated programs rarely kill a
   register on one path only or merge into a narrow one, so the test
   also runs the vectors that do. *)
let flip pc f =
  Flags.make ~cf:(not (Flags.cf f)) ~pf:(not (Flags.pf f)) ~af:(not (Flags.af f))
    ~zf:(not (Flags.zf f)) ~sf:(not (Flags.sf f))
    ~o_f:(if pc land 1 = 1 then not (Flags.o_f f) else Flags.o_f f)

let regs = Array.of_list Reg.all

let scramble ~pc ~dsts ~flags (step : Compiled.raw) : Compiled.raw =
 fun st ab ->
  step st ab;
  Array.iter
    (fun r ->
      let r = regs.(r) in
      State.set_reg st r Width.W64 (Int64.lognot (State.get_reg st r Width.W64)))
    dsts;
  if flags then st.State.flags <- flip pc st.State.flags

(* [everything]: also overwrite the values of live pcs, for the check
   that the comparison can fail. *)
let perturbed ?(everything = false) flat =
  let c = Compiled.of_flat flat and interp = Compiled.interpreted flat in
  Compiled.of_actions flat
    (Array.mapi
       (fun pc step ->
         let d = c.Compiled.descs.(pc) in
         if everything || c.Compiled.dead_len.(pc) > 0 then
           scramble ~pc ~dsts:d.Compiled.d_dsts ~flags:d.Compiled.d_writes_flags step
         else if c.Compiled.fused.(pc) != c.Compiled.raws.(pc) then
           scramble ~pc ~dsts:[||] ~flags:true step
         else step)
       interp.Compiled.raws)

let perturb_contracts =
  List.concat_map
    (fun c -> [ c; Contract.with_nesting c ])
    Contract.[ ct_seq; ct_bpas; ct_cond; ct_cond_bpas ]
  @ [ Contract.arch_seq ]

(* Every contract's traces, faults and streams, and every threat's
   measurements, or the exception a measurement raised. *)
let observations (target : Target.t) prog inputs =
  let traces =
    List.map
      (fun contract ->
        List.map
          (fun (r : Model.result) ->
            (Ctrace.to_string r.Model.ctrace, r.Model.faulted, r.Model.stream))
          (Model.ctraces contract prog inputs))
      perturb_contracts
  in
  let threats =
    [ target.Target.threat; Attack.flush_reload; Attack.evict_reload; Attack.port_contention ]
  in
  let measurements =
    List.map
      (fun threat ->
        let cpu = Cpu.create target.Target.uarch in
        let executor = Executor.create cpu (Executor.default_config ~threat ()) in
        match Executor.measure executor prog inputs with
        | ms ->
            Ok
              (Array.map
                 (fun (m : Executor.measurement) ->
                   (Htrace.elements m.Executor.htrace, m.Executor.kinds, m.Executor.events))
                 ms)
        | exception e -> Error (Printexc.to_string e))
      threats
  in
  (traces, measurements)

let dead_values_unobservable () =
  let dead = ref 0 and elided = ref 0 and detected = ref 0 in
  List.iter
    (fun (target : Target.t) ->
      let grown = (Target.fuzzer_config Contract.ct_seq target).Fuzzer.gen_cfg in
      List.iter
        (fun (growth, gen) ->
          List.iter
            (fun seed ->
              let flat = Program.flatten_exn (Generator.generate (Prng.create ~seed) gen) in
              let c = Compiled.of_flat flat in
              Array.iteri
                (fun pc k ->
                  if k > 0 then incr dead
                  else if c.Compiled.fused.(pc) != c.Compiled.raws.(pc) then incr elided)
                c.Compiled.dead_len;
              let inputs = batch_inputs 8 (Int64.add seed 41L) in
              let reference = observations target (Compiled.interpreted flat) inputs in
              if Stdlib.compare reference (observations target (perturbed flat) inputs) <> 0
              then
                Alcotest.failf "%s, growth %s, seed %Ld: a dead value was observed"
                  target.Target.name growth seed;
              if
                Stdlib.compare reference
                  (observations target (perturbed ~everything:true flat) inputs)
                <> 0
              then incr detected)
            [ 1L; 2L ])
        [ ("0", grown); ("cap", capped_gen target) ])
    Target.all;
  List.iteri
    (fun k program ->
      let flat = Program.flatten_exn program in
      let inputs = batch_inputs 8 (Int64.of_int (k + 61)) in
      if
        Stdlib.compare
          (observations Target.target5 (Compiled.interpreted flat) inputs)
          (observations Target.target5 (perturbed flat) inputs)
        <> 0
      then Alcotest.failf "vector %d: a dead value was observed" k)
    flowing_vectors;
  check bool "some pcs dead" true (!dead > 100);
  check bool "some flag writes elided" true (!elided > 100);
  check bool "overwriting live values too changes observations" true (!detected > 16)

(* --- executor ---------------------------------------------------------- *)

let measure_with prog =
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target5 in
  let cpu = Cpu.create cfg.Fuzzer.uarch in
  let executor = Executor.create cpu cfg.Fuzzer.executor in
  let prng = Prng.create ~seed:3L in
  let inputs = Input.generate_many prng ~entropy:2 ~n:20 in
  (Executor.measure executor prog inputs, executor, inputs)

let executor_identical () =
  each_case (fun ~label ~flat:_ ~compiled ~interp ->
      let mc, exec_c, inputs = measure_with compiled in
      let mi, exec_i, _ = measure_with interp in
      check int (label ^ ": measurement count") (Array.length mi)
        (Array.length mc);
      Array.iteri
        (fun idx (m : Executor.measurement) ->
          let m' = mi.(idx) in
          check bool
            (Printf.sprintf "%s input %d: htrace" label idx)
            true
            (Htrace.equal m.Executor.htrace m'.Executor.htrace);
          check bool
            (Printf.sprintf "%s input %d: kinds+events" label idx)
            true
            (Stdlib.compare
               (m.Executor.kinds, m.Executor.events)
               (m'.Executor.kinds, m'.Executor.events)
            = 0))
        mc;
      (* the swap check must agree too: it re-measures three sequences *)
      check bool (label ^ ": swap check")
        (Executor.swap_check exec_i interp inputs 0 1)
        (Executor.swap_check exec_c compiled inputs 0 1))

(* --- batched model ----------------------------------------------------- *)

(* [Model.ctraces] — superinstruction fusion, dead-flag elision and arena
   scratch states — against per-input [Model.run]: same ctraces, faults
   and streams for every contract, engine, template source and stream
   mode. *)
let batch_identical () =
  each_case (fun ~label ~flat:_ ~compiled ~interp ->
      let inputs = batch_inputs 12 7L in
      List.iter
        (fun contract ->
          let cname = Contract.name contract in
          let seq = List.map (Model.run contract compiled) inputs in
          let check_one ~what ~stream_mode i (b : Model.result)
              (r : Model.result) =
            let here s =
              Printf.sprintf "%s %s %s input %d: %s" label cname what i s
            in
            check bool (here "ctrace") true
              (Ctrace.equal b.Model.ctrace r.Model.ctrace);
            check bool (here "faulted") r.Model.faulted b.Model.faulted;
            match stream_mode with
            | `All ->
                check bool (here "stream") true
                  (Stdlib.compare b.Model.stream r.Model.stream = 0)
            | `First ->
                if i = 0 then
                  check bool (here "stream") true
                    (Stdlib.compare b.Model.stream r.Model.stream = 0)
                else
                  check int (here "stream empty") 0 (List.length b.Model.stream)
          in
          let compare_all ~what ~stream_mode batched =
            List.iteri
              (fun i (b, r) -> check_one ~what ~stream_mode i b r)
              (List.combine batched seq)
          in
          compare_all ~what:"batch/all" ~stream_mode:`All
            (Model.ctraces contract compiled inputs);
          compare_all ~what:"batch/first" ~stream_mode:`First
            (Model.ctraces ~stream:`First contract compiled inputs);
          (* the reference interpreter through the same batched walk *)
          compare_all ~what:"batch/interp" ~stream_mode:`All
            (Model.ctraces contract interp inputs);
          (* arena-pooled templates instead of per-input derivation *)
          let arena = Arena.create () in
          compare_all ~what:"batch/arena" ~stream_mode:`All
            (Model.ctraces ~templates:(Arena.templates arena inputs)
               contract compiled inputs))
        contracts)

(* --- arena template pool ----------------------------------------------- *)

(* Refilled pooled templates vs freshly allocated ones, across input sets
   that shrink and grow to exercise pool reuse and growth. *)
let arena_reuse_identical () =
  let arena = Arena.create () in
  List.iteri
    (fun i n ->
      let seed = Int64.of_int (i + 1) in
      let inputs = batch_inputs n seed in
      let fresh = Input.templates inputs in
      let pooled = Arena.templates arena inputs in
      check int (Printf.sprintf "round %d: count" i) (Array.length fresh)
        (Array.length pooled);
      Array.iteri
        (fun idx t ->
          check bool
            (Printf.sprintf "round %d template %d" i idx)
            true
            (State.equal_arch t pooled.(idx)))
        fresh)
    [ 10; 4; 12; 3; 16 ]

(* --- on-demand input fill ----------------------------------------------- *)

let inp seed entropy = { Input.seed; entropy }

(* The reference: registers, flags and every data word from the eager
   [Prng] walk. *)
let eager input =
  let s = State.create () in
  Input.apply_eager input s;
  s

let fill_entropies = List.init 17 Fun.id @ [ 17; 26; 27; 63 ]

(* Templates for [inputs]: fresh, or from an arena whose states were
   first filled at entropy 63 (eagerly), so every byte of every data
   word holds a stale value. *)
let fill_templates ~polluted inputs =
  if not polluted then Input.templates inputs
  else begin
    let arena = Arena.create () in
    ignore
      (Arena.templates arena
         (List.mapi (fun i _ -> inp (Int64.of_int (7000 + i)) 63) inputs));
    Arena.templates arena inputs
  end

(* Byte offsets of one read pattern: every word at its start, every word
   at a shifted start (the wider reads straddle into the next word), and
   the eight offsets of the last data word, from which the wider reads
   straddle into the guard tail. *)
let read_offsets width = function
  | `Aligned -> List.init 1024 (fun w -> 8 * w)
  | `Unaligned ->
      List.filter
        (fun off -> off + Width.bytes width <= Layout.sandbox_size)
        (List.init 1024 (fun w -> (8 * w) + 1 + (w mod 7)))
  | `Guard -> List.init 8 (fun k -> (8 * 1023) + k)

(* Every data word read through [Memory.read] equals the eager walk, at
   every width and alignment, whichever access fills it first; registers
   and flags too. *)
let on_demand_reads () =
  List.iter
    (fun entropy ->
      let inputs =
        inp 0L entropy
        :: List.init 3 (fun i -> inp (Int64.of_int ((97 * entropy) + i)) entropy)
      in
      let refs = List.map eager inputs in
      List.iter
        (fun polluted ->
          List.iter
            (fun width ->
              List.iter
                (fun (pname, pattern) ->
                  let templates = fill_templates ~polluted inputs in
                  List.iteri
                    (fun i (expected : State.t) ->
                      let got = templates.(i) in
                      let here what =
                        Printf.sprintf "entropy %d%s, %s %s, input %d: %s" entropy
                          (if polluted then " (polluted)" else "")
                          (Width.to_string width) pname i what
                      in
                      check bool (here "registers and flags") true
                        (Bytes.equal got.State.regs expected.State.regs
                        && Flags.equal got.State.flags expected.State.flags);
                      check bool (here "equal before any read") true
                        (State.equal_arch expected got);
                      List.iter
                        (fun off ->
                          let addr = Int64.add Layout.sandbox_base (Int64.of_int off) in
                          let want = Memory.read expected.State.mem ~addr width in
                          let have = Memory.read got.State.mem ~addr width in
                          if not (Int64.equal want have) then
                            Alcotest.failf "%s" (here (Printf.sprintf "offset %d" off)))
                        (read_offsets width pattern);
                      check bool (here "equal after the reads") true
                        (State.equal_arch expected got))
                    refs)
                [ ("aligned", `Aligned); ("unaligned", `Unaligned); ("guard", `Guard) ])
            [ Width.W8; Width.W16; Width.W32; Width.W64 ])
        [ false; true ])
    fill_entropies

(* A store to a pending word fills it before the journal saves it, so an
   undo, at any nesting depth, gives back the input's value, not the
   stale bytes underneath. *)
let on_demand_journal () =
  List.iter
    (fun entropy ->
      let input = inp 11L entropy in
      let expected = eager input in
      let got = (fill_templates ~polluted:true [ input ]).(0) in
      let mem = got.State.mem in
      let addr w = Int64.add Layout.sandbox_base (Int64.of_int (8 * w)) in
      let word s w = Memory.read s.State.mem ~addr:(addr w) Width.W64 in
      let here what = Printf.sprintf "entropy %d: %s" entropy what in
      let outer = Memory.journal_begin mem in
      Memory.write mem ~addr:(addr 5) Width.W64 (-1L);
      (* unaligned narrow store straddling words 9 and 10 *)
      Memory.write mem ~addr:(Int64.add (addr 9) 6L) Width.W32 0x5A5A5A5AL;
      let inner = Memory.journal_begin mem in
      Memory.write mem ~addr:(addr 7) Width.W8 0xFFL;
      Memory.write mem ~addr:(addr 5) Width.W16 0x1234L;
      Memory.journal_undo mem ~mark:inner;
      check int64 (here "inner undo: word 7") (word expected 7) (word got 7);
      check int64 (here "inner undo: word 5 keeps the outer store") (-1L) (word got 5);
      Memory.journal_undo mem ~mark:outer;
      List.iter
        (fun w ->
          check int64 (here (Printf.sprintf "outer undo: word %d" w)) (word expected w)
            (word got w))
        [ 5; 7; 9; 10 ];
      check int (here "words filled") 4 (Memory.words_filled mem);
      check bool (here "equal to the eager state") true (State.equal_arch expected got))
    [ 0; 2; 16 ]

(* Copies of partly filled templates carry the pending words and their
   source: a copy reads the input's values, equality compares the values
   every access would see, and a changed word is a difference. *)
let on_demand_copies () =
  List.iter
    (fun entropy ->
      let input = inp 23L entropy in
      let expected = eager input in
      let here what = Printf.sprintf "entropy %d: %s" entropy what in
      let t = (fill_templates ~polluted:true [ input ]).(0) in
      for w = 0 to 99 do
        ignore
          (Memory.read t.State.mem
             ~addr:(Int64.add Layout.sandbox_base (Int64.of_int (80 * w)))
             Width.W16)
      done;
      let c = State.copy t in
      let dst = (fill_templates ~polluted:true [ inp 99L 63 ]).(0) in
      State.copy_into t ~dst;
      List.iter
        (fun (name, s) ->
          check bool (here (name ^ " equals the eager state")) true
            (State.equal_arch expected s);
          check bool (here (name ^ " equals the template")) true (State.equal_arch t s))
        [ ("copy", c); ("copy_into", dst) ];
      List.iter
        (fun off ->
          let addr = Int64.add Layout.sandbox_base (Int64.of_int off) in
          check int64
            (here (Printf.sprintf "copy reads offset %d" off))
            (Memory.read expected.State.mem ~addr Width.W64)
            (Memory.read dst.State.mem ~addr Width.W64))
        (List.init 1024 (fun w -> 8 * w));
      (* a store that changes a still-pending word of the copy makes it
         differ; its undo makes it equal again *)
      let slot = State.slot () in
      State.save c slot;
      let addr = Int64.add Layout.sandbox_base 8184L in
      Memory.write c.State.mem ~addr Width.W64
        (Int64.lognot (Memory.read expected.State.mem ~addr Width.W64));
      check bool (here "a changed word differs") false (State.equal_arch expected c);
      State.undo c slot;
      check bool (here "undone") true (State.equal_arch expected c))
    [ 0; 2; 16; 30 ]

(* Model ctraces and executor measurements over pooled templates, whose
   states held maximum-entropy garbage, equal those over fresh templates
   and over eagerly filled ones. *)
let on_demand_observations () =
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target5 in
  each_case (fun ~label ~flat:_ ~compiled ~interp:_ ->
      let inputs = batch_inputs 16 9L in
      let sources =
        [
          ("fresh", Input.templates inputs);
          ("pooled", fill_templates ~polluted:true inputs);
          ("eager", Array.of_list (List.map eager inputs));
        ]
      in
      let traces templates =
        List.map
          (fun contract ->
            List.map
              (fun (r : Model.result) ->
                (Ctrace.to_string r.Model.ctrace, r.Model.faulted, r.Model.stream))
              (Model.ctraces ~templates contract compiled inputs))
          [ Contract.ct_seq; Contract.ct_cond; Contract.ct_bpas ]
      in
      let measure templates =
        let cpu = Cpu.create cfg.Fuzzer.uarch in
        let executor = Executor.create cpu cfg.Fuzzer.executor in
        Array.map
          (fun (m : Executor.measurement) ->
            (Htrace.elements m.Executor.htrace, m.Executor.kinds, m.Executor.events))
          (Executor.measure ~templates executor compiled inputs)
      in
      let ref_traces = traces (List.assoc "eager" sources) in
      let ref_measure = measure (List.assoc "eager" sources) in
      List.iter
        (fun (name, templates) ->
          check bool
            (Printf.sprintf "%s %s: ctraces, faults and streams" label name)
            true
            (Stdlib.compare ref_traces (traces templates) = 0);
          check bool
            (Printf.sprintf "%s %s: measurements" label name)
            true
            (Stdlib.compare ref_measure (measure templates) = 0))
        sources)

(* Pooled templates against [Input.to_state] and the eager walk. *)
let check_templates ~what arena inputs =
  let pooled = Arena.templates arena inputs in
  List.iteri
    (fun i input ->
      let here = Printf.sprintf "%s: input %d" what i in
      check bool here true (State.equal_arch (Input.to_state input) pooled.(i));
      check bool (here ^ " (eager)") true (State.equal_arch (eager input) pooled.(i)))
    inputs

(* Batches that mix entropies, shrink and grow on one arena: an eager
   fill (entropy > 16) followed by an on-demand one on the same pooled
   state, and states past a smaller batch's end left as they were. *)
let arena_mixed_entropy () =
  let arena = Arena.create () in
  let step k inputs =
    check_templates ~what:(Printf.sprintf "step %d" k) arena inputs
  in
  step 1 [ inp 1L 2; inp 2L 16 ];
  step 2 [ inp 3L 2; inp 4L 2 ];
  step 3 (List.init 16 (fun i -> inp (Int64.of_int (100 + i)) 16));
  step 4 (List.init 4 (fun i -> inp (Int64.of_int (200 + i)) 2));
  step 5 (List.init 16 (fun i -> inp (Int64.of_int (300 + i)) 2));
  step 6 [ inp 5L 30; inp 6L 2 ];
  step 7 [ inp 7L 2; inp 8L 30 ];
  step 8 [ inp 9L 0; inp 10L 2 ];
  (* an eager refill restarts the count of words filled on access *)
  let t = (Arena.templates arena [ inp 11L 2 ]).(0) in
  ignore (Memory.read t.State.mem ~addr:Layout.sandbox_base Width.W64);
  check int "one word filled" 1 (Memory.words_filled t.State.mem);
  let t = (Arena.templates arena [ inp 12L 30 ]).(0) in
  check int "no word filled after an eager fill" 0 (Memory.words_filled t.State.mem)

(* After warm-up, materializing a batch costs a pending-bit reset and
   five chained draws per input: no minor word per input. *)
let arena_allocates_nothing () =
  List.iter
    (fun entropy ->
      let n = 400 in
      let arena = Arena.create () in
      let batch seed = List.init n (fun i -> inp (Int64.of_int (seed + i)) entropy) in
      let a = batch 1 and b = batch 5000 in
      ignore (Arena.templates arena a);
      ignore (Arena.templates arena b);
      let before = Gc.minor_words () in
      ignore (Arena.templates arena a);
      let words = Gc.minor_words () -. before in
      if words > 8. then
        Alcotest.failf "entropy %d: %.0f minor words for %d inputs" entropy words n)
    [ 0; 2; 16 ]

(* Programs without memory operands can read only the fill-buffer seed
   word: the plan collapses to the last data word. *)
let fill_plan_shape () =
  List.iter
    (fun seed ->
      let p = gen_program ~seed [ Catalog.AR ] in
      let flat = Program.flatten_exn p in
      match Input.fill_plan flat with
      | Some [| 1023 |] -> ()
      | Some plan ->
          Alcotest.failf "AR/seed %Ld: expected [1023], got %d words" seed
            (Array.length plan)
      | None -> Alcotest.failf "AR/seed %Ld: expected a plan" seed)
    seeds;
  (* masked memory programs must be provable too *)
  List.iter
    (fun seed ->
      let p = gen_program ~seed [ Catalog.AR; Catalog.MEM; Catalog.CB ] in
      let flat = Program.flatten_exn p in
      match Input.fill_plan flat with
      | Some plan ->
          check bool
            (Printf.sprintf "AR+MEM+CB/seed %Ld: seed word included" seed)
            true
            (Array.exists (fun w -> w = 1023) plan)
      | None -> Alcotest.failf "AR+MEM+CB/seed %Ld: expected a plan" seed)
    seeds

(* --- executor measurement-buffer reuse --------------------------------- *)

(* One executor measuring input sets that shrink and grow must agree with
   a fresh executor per call: the cached count matrix and event
   accumulator are reset in place. *)
let executor_reuse_identical () =
  let g = Gadgets.spectre_v1 in
  let flat = Program.flatten_exn g.Gadgets.program in
  let prog = Compiled.of_flat flat in
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target5 in
  let fresh_measure inputs =
    let cpu = Cpu.create cfg.Fuzzer.uarch in
    let executor = Executor.create cpu cfg.Fuzzer.executor in
    Executor.measure executor prog inputs
  in
  let cpu = Cpu.create cfg.Fuzzer.uarch in
  let reused = Executor.create cpu cfg.Fuzzer.executor in
  List.iteri
    (fun i n ->
      let inputs = batch_inputs n (Int64.of_int ((2 * i) + 3)) in
      let a = fresh_measure inputs in
      let b = Executor.measure reused prog inputs in
      check int (Printf.sprintf "round %d: count" i) (Array.length a)
        (Array.length b);
      Array.iteri
        (fun idx (m : Executor.measurement) ->
          let m' = a.(idx) in
          check bool
            (Printf.sprintf "round %d input %d: htrace" i idx)
            true
            (Htrace.equal m.Executor.htrace m'.Executor.htrace);
          check bool
            (Printf.sprintf "round %d input %d: kinds+events" i idx)
            true
            (Stdlib.compare
               (m.Executor.kinds, m.Executor.events)
               (m'.Executor.kinds, m'.Executor.events)
            = 0))
        b)
    [ 20; 7; 31; 20 ]

(* --- templates come back untouched ------------------------------------- *)

(* The model and the executor run every input on its template and undo
   the run. After every public call that takes templates, each template
   must equal a copy taken before it (registers, flags, memory and pc):
   generated programs with stores, under contracts and targets whose runs
   explore or transiently execute those stores. *)
let program_with_stores (cfg : Fuzzer.config) seed =
  let prng = Prng.create ~seed in
  let rec go () =
    let p = Generator.generate prng cfg.Fuzzer.gen_cfg in
    if List.exists Instruction.stores (Program.instructions p) then p else go ()
  in
  go ()

let templates_untouched () =
  let episodes = ref 0 in
  List.iter
    (fun (name, target, contract) ->
      let cfg = Target.fuzzer_config ~seed:1L contract target in
      List.iter
        (fun seed ->
          let prog = Compiled.of_program_exn (program_with_stores cfg seed) in
          let inputs = batch_inputs 12 seed in
          let templates = Arena.templates (Arena.create ()) inputs in
          let copies = Array.map State.copy templates in
          let untouched call =
            Array.iteri
              (fun i (t : State.t) ->
                check bool
                  (Printf.sprintf "%s, seed %Ld, %s: template %d" name seed call i)
                  true
                  (State.equal_arch copies.(i) t && t.State.pc = copies.(i).State.pc))
              templates
          in
          ignore
            (Model.ctraces ~watchdog:cfg.Fuzzer.watchdog ~templates contract prog
               inputs);
          untouched "Model.ctraces";
          let executor =
            Executor.create (Cpu.create cfg.Fuzzer.uarch) cfg.Fuzzer.executor
          in
          let ms = Executor.measure ~templates executor prog inputs in
          untouched "Executor.measure";
          Array.iter
            (fun (m : Executor.measurement) ->
              if m.Executor.kinds <> [] then incr episodes)
            ms;
          ignore (Executor.swap_check ~templates executor prog inputs 0 1);
          untouched "Executor.swap_check")
        [ 1L; 2L; 3L ])
    [
      ("Target 5 x CT-COND", Target.target5, Contract.ct_cond);
      ( "Target 5 x CT-COND-BPAS, nested",
        Target.target5,
        Contract.with_nesting Contract.ct_cond_bpas );
      ("Target 2 x CT-BPAS, nested", Target.target2, Contract.with_nesting Contract.ct_bpas);
      ("Target 7 x CT-SEQ (assists)", Target.target7, Contract.ct_seq);
    ];
  check bool "some measured inputs had transient episodes" true (!episodes > 0)

(* No journal level may stay open on a template once a call has returned
   or raised: undoing at mark 0 then finds no level to close. *)
let journal_closed (s : State.t) =
  match Memory.journal_undo s.State.mem ~mark:0 with
  | () -> false
  | exception Invalid_argument _ -> true

(* A watchdog trip deep inside nested explorations unwinds every journal
   level it opened: the template comes back exactly, with no level left
   open, and the next run on it traces like a fresh state. Every Jcc below targets its own
   fall-through, so each one opens an exploration, nested up to the
   contract's depth, and every block stores; almost all of the walk's
   steps are at depth 2 or more. The sweep trips the budget at every
   step of the walk. [dead] puts a stretch of three dead instructions in
   every block, which the walk passes over in one step. *)
let nested_stores ~dead =
  let open Instruction in
  let mask = binop Opcode.And (Operand.reg Reg.RAX) (Operand.imm64 Layout.line_mask_one_page) in
  let stretch =
    [
      binop Opcode.Xor (Operand.reg Reg.RCX) (Operand.reg Reg.RDX);
      binop Opcode.Add (Operand.reg Reg.RDX) (Operand.imm 3);
      binop Opcode.Imul (Operand.reg Reg.RCX) (Operand.reg Reg.RCX);
    ]
  in
  let block k =
    Program.block (Printf.sprintf "b%d" k)
      ([ mov (Operand.sandbox ~disp:(8 * k) Reg.RAX) (Operand.imm (k + 1)) ]
      @ (if dead then stretch else [])
      @ [ binop Opcode.Add (Operand.reg Reg.RBX) (Operand.imm 1) ]
      @ if k < 10 then [ jcc Cond.Z (Printf.sprintf "b%d" (k + 1)) ] else [])
  in
  Program.make (Program.block "entry" [ mask ] :: List.init 11 block)

let trip_contract = Contract.with_nesting Contract.ct_cond
let trip_inputs = batch_inputs 1 7L

let trips prog n templates =
  match
    Model.ctraces ~watchdog:{ Watchdog.max_model_steps = n } ~templates trip_contract prog
      trip_inputs
  with
  | _ -> false
  | exception Watchdog.Pathological _ -> true

(* The walk's length: the smallest budget that does not trip. *)
let walk_length prog =
  let rec steps lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if trips prog mid (Input.templates trip_inputs) then steps (mid + 1) hi
      else steps lo mid
  in
  steps 1 1_000_000

let trip_sweep prog =
  let fresh =
    Model.ctraces ~templates:(Input.templates trip_inputs) trip_contract prog trip_inputs
  in
  let total = walk_length prog in
  check bool "the walk nests deeply" true (total > 2000);
  let templates = Input.templates trip_inputs in
  let copy = State.copy templates.(0) in
  for n = 1 to total - 1 do
    check bool (Printf.sprintf "budget %d trips" n) true (trips prog n templates);
    if not (State.equal_arch copy templates.(0) && templates.(0).State.pc = copy.State.pc)
    then Alcotest.failf "budget %d: template not restored" n;
    if not (journal_closed templates.(0)) then
      Alcotest.failf "budget %d: a journal level stayed open" n
  done;
  let again = Model.ctraces ~templates trip_contract prog trip_inputs in
  check bool "next run traces like a fresh state" true
    (List.for_all2
       (fun (a : Model.result) (b : Model.result) -> Ctrace.equal a.Model.ctrace b.Model.ctrace)
       fresh again);
  total

let pathological_unwinds () =
  ignore (trip_sweep (Compiled.of_program_exn (nested_stores ~dead:false)))

(* The same sweep with a dead stretch in every block: a skipped stretch
   counts its length against the budget, so the walk's length is the
   interpreter's, which skips nothing, and a trip inside a stretch
   unwinds as exactly as one anywhere else. *)
let trip_in_dead_stretch () =
  let flat = Program.flatten_exn (nested_stores ~dead:true) in
  let prog = Compiled.of_flat flat in
  check int "a stretch of three in every block" 11
    (Array.fold_left (fun n k -> if k = 3 then n + 1 else n) 0 prog.Compiled.dead_len);
  check int "the walk's length is the interpreter's"
    (walk_length (Compiled.interpreted flat))
    (trip_sweep prog)

(* A fault escaping a measurement (a division by zero after a store, on
   the architectural path) still hands the template back exactly. *)
let fault_unwinds () =
  let open Instruction in
  let program =
    Program.of_insts
      [
        binop Opcode.And (Operand.reg Reg.RAX) (Operand.imm64 Layout.line_mask_one_page);
        mov (Operand.sandbox Reg.RAX) (Operand.imm 7);
        binop Opcode.Xor (Operand.reg Reg.RBX) (Operand.reg Reg.RBX);
        div (Operand.reg Reg.RBX);
      ]
  in
  let prog = Compiled.of_program_exn program in
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target5 in
  let executor = Executor.create (Cpu.create cfg.Fuzzer.uarch) cfg.Fuzzer.executor in
  let inputs = batch_inputs 3 5L in
  let templates = Input.templates inputs in
  let copies = Array.map State.copy templates in
  check bool "the measurement faults" true
    (match Executor.measure ~templates executor prog inputs with
    | _ -> false
    | exception Semantics.Division_fault -> true);
  Array.iteri
    (fun i (t : State.t) ->
      check bool (Printf.sprintf "template %d restored" i) true
        (State.equal_arch copies.(i) t && t.State.pc = copies.(i).State.pc
        && journal_closed t))
    templates

(* --- whole fuzzer ------------------------------------------------------ *)


let fuzz_with ~seed ~engine =
  let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target5 in
  let cfg = { cfg with Fuzzer.engine } in
  Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 25)

let fuzzer_identical () =
  List.iter
    (fun seed ->
      let oc, sc = fuzz_with ~seed ~engine:Fuzzer.Compiled in
      let oi, si = fuzz_with ~seed ~engine:Fuzzer.Interpreted in
      let here s = Printf.sprintf "seed %Ld: %s" seed s in
      check string (here "outcome") (Support.outcome_fingerprint oi)
        (Support.outcome_fingerprint oc);
      check string (here "stats") (Support.stats_fingerprint si)
        (Support.stats_fingerprint sc))
    seeds

(* check_test_case on a known-violating gadget, both engines *)
let check_test_case_identical () =
  let g = Gadgets.spectre_v1 in
  List.iter
    (fun seed ->
      let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target5 in
      let prng = Prng.create ~seed in
      let inputs = Input.generate_many prng ~entropy:2 ~n:50 in
      let run engine =
        let cfg = { cfg with Fuzzer.engine } in
        let cpu = Cpu.create cfg.Fuzzer.uarch in
        let executor = Executor.create cpu cfg.Fuzzer.executor in
        Fuzzer.check_test_case cfg executor g.Gadgets.program inputs
      in
      let fp = function
        | Error e -> "error: " ^ e
        | Ok None -> "ok"
        | Ok (Some v) -> Support.outcome_fingerprint (Fuzzer.Violation v)
      in
      check string
        (Printf.sprintf "seed %Ld: spectre-v1 check" seed)
        (fp (run Fuzzer.Interpreted))
        (fp (run Fuzzer.Compiled)))
    seeds

let () =
  Alcotest.run "compiled"
    [
      ( "differential",
        [
          tc "descriptor metadata matches the ISA layer" `Quick desc_metadata;
          tc "bare emulation is bit-identical" `Quick emulation_identical;
          tc "contract model is bit-identical" `Quick model_identical;
          tc "CPU simulator is bit-identical" `Quick cpu_identical;
          tc "CPU timing loop edge cases are bit-identical" `Quick
            timing_edge_cases;
          tc "timing plan has the expected shape" `Quick plan_shape;
          tc "batched model equals per-input runs" `Quick batch_identical;
          tc "arena templates equal fresh templates" `Quick
            arena_reuse_identical;
          tc "fill plans have the expected shape" `Quick fill_plan_shape;
          tc "mixed-entropy arena batches" `Quick arena_mixed_entropy;
          tc "executor buffer reuse is bit-identical" `Quick
            executor_reuse_identical;
          tc "executor measurements are bit-identical" `Quick
            executor_identical;
          tc "checks hand their templates back untouched" `Quick
            templates_untouched;
          tc "a watchdog trip unwinds nested explorations" `Quick
            pathological_unwinds;
          tc "a fault escaping a measurement unwinds" `Quick fault_unwinds;
          tc "fuzzer outcomes and stats are bit-identical" `Slow
            fuzzer_identical;
          tc "check_test_case agrees on spectre-v1" `Quick
            check_test_case_identical;
        ] );
      ( "demand_fill",
        [
          tc "reads match the eager walk" `Quick on_demand_reads;
          tc "journal undo keeps filled words" `Quick on_demand_journal;
          tc "copies of partly filled templates" `Quick on_demand_copies;
          tc "pooled templates observe as fresh ones" `Quick
            on_demand_observations;
          tc "arena templates allocate nothing per input" `Quick
            arena_allocates_nothing;
        ] );
      ( "liveness",
        [
          tc "never elided: memory, control flow, fences, division, raises" `Quick
            never_elided;
          tc "uses: sources and the old value of a merging write" `Quick liveness_uses;
          tc "flag uses: readers and partial writers" `Quick liveness_flag_uses;
          tc "kills: whole registers and the whole flag word" `Quick liveness_kills;
          tc "observed inputs stay live whatever the results" `Quick liveness_observed;
          tc "successors: Jcc, JMP, CALL, computed targets, the end" `Quick
            liveness_successors;
          tc "values called dead change no trace or measurement" `Quick
            dead_values_unobservable;
          tc "a watchdog trip inside a skipped stretch unwinds" `Quick
            trip_in_dead_stretch;
        ] );
      ( "edges",
        [ tc "every action matches the interpreter on edge values" `Quick edge_steps ] );
      ( "allocation",
        [
          tc "register and immediate steps allocate nothing" `Quick
            register_steps_allocate_nothing;
          tc "memory steps allocate under 3 words" `Quick memory_steps_allocate_little;
          tc "CPU memory steps allocate nothing" `Quick
            cpu_memory_steps_allocate_nothing;
          tc "division steps allocate nothing" `Quick
            division_steps_allocate_nothing;
        ] );
    ]
