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
             be structurally identical ([mr_addr] is a closure, so the
             memory reference is compared field by field). *)
          let di = interp.Compiled.descs.(pc) in
          check bool (here "interp desc") true
            (Stdlib.compare
               { d with Compiled.d_mem = None }
               { di with Compiled.d_mem = None }
             = 0);
          check bool (here "interp mem ref") true
            (match (d.Compiled.d_mem, di.Compiled.d_mem) with
            | None, None -> true
            | Some a, Some b ->
                a.Compiled.mr_width = b.Compiled.mr_width
                && a.Compiled.mr_base = b.Compiled.mr_base
                && a.Compiled.mr_index = b.Compiled.mr_index
            | _ -> false))
        code)

(* --- bare emulation ---------------------------------------------------- *)

(* [Compiled.run] vs [Semantics.run]: same outcome stream (instruction,
   pc, access records in order, branch direction, next pc) and same
   final architectural state. *)
let emulation_identical () =
  each_case (fun ~label ~flat ~compiled ~interp:_ ->
      List.iter
        (fun seed ->
          let input = input_for seed in
          let s_ref = Input.to_state input in
          let s_cmp = Input.to_state input in
          let out_ref = Semantics.run flat s_ref in
          let out_cmp = Compiled.run compiled s_cmp in
          check bool
            (Printf.sprintf "%s input %Ld: outcome streams" label seed)
            true
            (Stdlib.compare out_ref out_cmp = 0);
          check bool
            (Printf.sprintf "%s input %Ld: final state" label seed)
            true
            (State.equal_arch s_ref s_cmp))
        seeds)

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

let same_run ~here (s_c, ev_c, pc_c, h_c, fb_c) (s_i, ev_i, pc_i, h_i, fb_i) =
  check bool (here "arch state") true
    (State.equal_arch s_c s_i && s_c.State.pc = s_i.State.pc);
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
     after a timing-plain run in which the plan elides a flag write, and
     right after a flag write that [fused] elides but the plan does not
     (its killer lies past the load);
   - a timing-plain run entered mid-way by a taken Jcc. *)
let mask x = Instruction.binop Opcode.And (Operand.reg x) (Operand.imm64 Layout.line_mask_one_page)
let alu op x n = Instruction.binop op (Operand.reg x) (Operand.imm n)
let load x m = Instruction.mov (Operand.reg x) m
let at x = Operand.sandbox x
let fixed disp = Operand.mem ~base:Reg.sandbox_base ~disp ()

let bypass_program =
  Program.of_insts
    [
      alu Opcode.Add Reg.RBX 1 (* 0: elided by the plan: 1 kills it *);
      mask Reg.RAX (* 1: elided by [fused] only: 3 kills it *);
      load Reg.RDI (fixed 128) (* 2: first page-0 access: assisted load *);
      alu Opcode.And Reg.RDI 0;
      Instruction.binop Opcode.Add (Operand.reg Reg.RDI) (Operand.reg Reg.RAX);
      Instruction.mov (at Reg.RDI) (Operand.reg Reg.RCX) (* 5: late address *);
      alu Opcode.Add Reg.RDX 1 (* 6: elided by the plan: 7 kills it *);
      alu Opcode.Sub Reg.RSI 2 (* 7: elided by [fused] only: 9 kills it *);
      load Reg.RCX (at Reg.RAX) (* 8: bypasses the store at 5 *);
      Instruction.binop Opcode.Xor (Operand.reg Reg.RSI) (Operand.reg Reg.RSI);
      mask Reg.RCX;
      load Reg.RDX (at Reg.RCX) (* transmits the stale value *);
      Instruction.cmov Cond.Z (Operand.reg Reg.RDX) (Operand.reg Reg.RCX);
    ]

let assisted_store_program =
  Program.of_insts
    [
      alu Opcode.Add Reg.RBX 1 (* elided by the plan *);
      mask Reg.RAX (* elided by [fused] only *);
      Instruction.mov (at Reg.RAX) (Operand.reg Reg.RCX) (* assisted store *);
      alu Opcode.Add Reg.RDX 1 (* elided by the plan *);
      alu Opcode.Sub Reg.RSI 2 (* elided by [fused] only *);
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
          alu Opcode.Add Reg.RDX 1 (* elided by the plan *);
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
   each tracked port, and every µop of a timing-plain step is tracked;
   the plan elides a flag write only inside its own timing-plain run; an
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
  done;
  Array.iteri
    (fun pc step ->
      let raw = prog.Compiled.raws.(pc) and fused = prog.Compiled.fused.(pc) in
      if step != raw then begin
        check bool (Printf.sprintf "%s pc %d: elided step is fused" label pc) true
          (step == fused);
        check bool (Printf.sprintf "%s pc %d: elided step is timing-plain" label pc)
          true (plan.Compiled.plain_len.(pc) > 0)
      end)
    plan.Compiled.plain_steps

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
  let steps = prog.Compiled.plan.Compiled.plain_steps in
  (* ADD at 0 dies at the IMUL in its own run; the IMUL's flags die only
     past the load, at the SUB, so only [fused] elides them. *)
  check bool "pc 0 elided" true (steps.(0) != prog.Compiled.raws.(0));
  check bool "pc 1 elided by fused" true
    (prog.Compiled.fused.(1) != prog.Compiled.raws.(1));
  check bool "pc 1 kept by the plan" true (steps.(1) == prog.Compiled.raws.(1));
  each_case (fun ~label ~flat:_ ~compiled ~interp ->
      check_plan ~label compiled;
      let plan = interp.Compiled.plan in
      check bool (label ^ ": interpreted plan is empty") true
        (Array.length plan.Compiled.plain_len = 0
        && Array.length plan.Compiled.plain_ports = 0
        && Array.length plan.Compiled.port_sums = 0
        && Array.length plan.Compiled.plain_steps = 0))

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

(* [Model.batch] — superinstruction fusion, dead-flag elision and arena
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
            (Model.batch contract compiled inputs);
          compare_all ~what:"batch/first" ~stream_mode:`First
            (Model.batch ~stream:`First contract compiled inputs);
          (* the reference interpreter through the same batched walk *)
          compare_all ~what:"batch/interp" ~stream_mode:`All
            (Model.batch contract interp inputs);
          (* arena-pooled templates instead of per-input derivation *)
          let arena = Arena.create () in
          compare_all ~what:"batch/arena" ~stream_mode:`All
            (Model.batch contract compiled
               ~templates:(Arena.templates arena inputs)
               inputs))
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

(* --- sparse input fill -------------------------------------------------- *)

(* [None] when [got] equals [expected] in registers, flags and every
   word of [plan]; otherwise what differs. Data words outside the plan
   are taken from [expected] before comparing, since a sparse fill leaves
   them as a previous fill did. *)
let plan_mismatch ~plan ~(expected : State.t) (got : State.t) =
  let eraw = Memory.raw expected.State.mem
  and graw = Memory.raw got.State.mem in
  match
    Array.find_opt
      (fun w -> Bytes.sub eraw (8 * w) 8 <> Bytes.sub graw (8 * w) 8)
      plan
  with
  | Some w -> Some (Printf.sprintf "data word %d" w)
  | None ->
      let merged = State.copy got in
      let mraw = Memory.raw merged.State.mem in
      let in_plan = Array.make 1024 false in
      Array.iter (fun w -> in_plan.(w) <- true) plan;
      Array.iteri
        (fun w listed ->
          if not listed then Bytes.blit eraw (8 * w) mraw (8 * w) 8)
        in_plan;
      if State.equal_arch expected merged then None
      else Some "registers or flags"

(* The reachable-word plan must make the sparse fill observation-
   equivalent to the full fill: model ctraces and executor measurements
   over sparsely refilled, deliberately polluted arena templates agree
   with freshly allocated fully-filled ones. Pollution uses maximum
   entropy from unrelated seeds, so every unlisted word holds garbage
   the plan claims is unreachable. *)
let sparse_fill_equivalent () =
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target5 in
  each_case (fun ~label ~flat ~compiled ~interp:_ ->
      match Input.fill_plan flat with
      | None -> () (* unprovable (e.g. a VAR memory division): full fill *)
      | Some plan ->
          let inputs = batch_inputs 16 9L in
          let fresh = Input.templates inputs in
          let arena = Arena.create () in
          ignore
            (Arena.templates arena
               (List.init 16 (fun i ->
                    { Input.seed = Int64.of_int (1000 + i); entropy = 16 })));
          let pooled = Arena.templates ~plan arena inputs in
          (* registers, flags and plan words carry identical bytes *)
          Array.iteri
            (fun i expected ->
              match plan_mismatch ~plan ~expected pooled.(i) with
              | None -> ()
              | Some d -> Alcotest.failf "%s input %d: %s differs" label i d)
            fresh;
          List.iter
            (fun contract ->
              let a = Model.batch contract compiled ~templates:fresh inputs in
              let b = Model.batch contract compiled ~templates:pooled inputs in
              List.iteri
                (fun i ((x : Model.result), (y : Model.result)) ->
                  let here s =
                    Printf.sprintf "%s %s input %d: %s" label
                      (Contract.name contract) i s
                  in
                  check bool (here "ctrace") true
                    (Ctrace.equal x.Model.ctrace y.Model.ctrace);
                  check bool (here "faulted") x.Model.faulted y.Model.faulted;
                  check bool (here "stream") true
                    (Stdlib.compare x.Model.stream y.Model.stream = 0))
                (List.combine a b))
            [ Contract.ct_seq; Contract.ct_cond; Contract.ct_bpas ];
          let measure templates =
            let cpu = Cpu.create cfg.Fuzzer.uarch in
            let executor = Executor.create cpu cfg.Fuzzer.executor in
            Executor.measure ~templates executor compiled inputs
          in
          let ma = measure fresh and mb = measure pooled in
          Array.iteri
            (fun i (m : Executor.measurement) ->
              let m' = mb.(i) in
              let here s = Printf.sprintf "%s input %d: %s" label i s in
              check bool (here "htrace") true
                (Htrace.equal m.Executor.htrace m'.Executor.htrace);
              check bool (here "kinds+events") true
                (Stdlib.compare
                   (m.Executor.kinds, m.Executor.events)
                   (m'.Executor.kinds, m'.Executor.events)
                = 0))
            ma)

(* Pooled templates against [Input.to_state], on the full state without
   a plan and on the plan's words with one. *)
let check_templates ~what ?plan arena inputs =
  let pooled = Arena.templates ?plan arena inputs in
  List.iteri
    (fun i input ->
      let expected = Input.to_state input in
      let here = Printf.sprintf "%s: input %d" what i in
      match plan with
      | None -> check bool here true (State.equal_arch expected pooled.(i))
      | Some plan -> (
          match plan_mismatch ~plan ~expected pooled.(i) with
          | None -> ()
          | Some d -> Alcotest.failf "%s: %s differs" here d))
    inputs

let inp seed entropy = { Input.seed; entropy }

(* Regression: the arena's record of which pooled states may hold
   nonzero bytes 2..3 (entropy > 10) or 4..7 (entropy > 26) must follow
   every input of a batch, not the first, and must survive a smaller
   batch that leaves the states past its end untouched. Each sequence
   left stale bytes in some template when the record was one flag set
   from the first input's entropy. *)
let arena_mixed_entropy () =
  let plan = Array.append (Array.init 64 (fun i -> 16 * i)) [| 1023 |] in
  List.iter
    (fun (mode, plan) ->
      let arena = Arena.create () in
      let step k inputs =
        check_templates ~what:(Printf.sprintf "%s step %d" mode k) ?plan arena
          inputs
      in
      step 1 [ inp 1L 2; inp 2L 16 ];
      step 2 [ inp 3L 2; inp 4L 2 ];
      step 3 (List.init 16 (fun i -> inp (Int64.of_int (100 + i)) 16));
      step 4 (List.init 4 (fun i -> inp (Int64.of_int (200 + i)) 2));
      step 5 (List.init 16 (fun i -> inp (Int64.of_int (300 + i)) 2));
      (* entropy > 16 takes the full fill even with a plan *)
      step 6 [ inp 5L 30; inp 6L 2 ];
      step 7 [ inp 7L 2; inp 8L 2 ])
    [ ("full", None); ("sparse", Some plan) ]

(* The parity-row kernel at every entropy it serves, on hand-built plans
   covering the edges: the last word alone (a 1024-step row chain),
   both ends, a consecutive run, gaps of 63/64/65/511 words, every 8th
   word and half the sandbox. Each plan runs on a fresh arena (the fill
   skips the stores of bytes known to be zero) and on one polluted with
   entropy-30 values in every byte of every word; the entropy sweep
   ends by shrinking the rows again. *)
let sparse_kernel_every_entropy () =
  let plans =
    [
      ("last", [| 1023 |]);
      ("ends", [| 0; 1023 |]);
      ("run", Array.init 40 (fun i -> 300 + i));
      ("gaps", [| 5; 68; 132; 197; 708; 1023 |]);
      ("every 8th", Array.init 128 (fun i -> (8 * i) + 7));
      ("half", Array.init 512 (fun i -> (2 * i) + 1));
    ]
  in
  List.iter
    (fun (name, plan) ->
      List.iter
        (fun polluted ->
          let arena = Arena.create () in
          if polluted then
            ignore
              (Arena.templates arena
                 (List.init 4 (fun i -> inp (Int64.of_int (900 + i)) 30)));
          List.iter
            (fun entropy ->
              check_templates
                ~what:
                  (Printf.sprintf "%s%s, entropy %d" name
                     (if polluted then " (polluted)" else "")
                     entropy)
                ~plan arena
                (List.init 4 (fun i ->
                     inp (Int64.of_int ((31 * entropy) + i + 1)) entropy)))
            (List.init 17 Fun.id @ [ 2 ]))
        [ false; true ])
    plans;
  (* a plan that is not strictly ascending data words is refused before
     any store: the previous templates are left as they were *)
  let arena = Arena.create () in
  let pooled = Arena.templates arena [ inp 1L 2; inp 2L 2 ] in
  let before = Array.map State.copy pooled in
  List.iter
    (fun (name, plan) ->
      (match Arena.templates ~plan arena [ inp 3L 2; inp 4L 2 ] with
      | _ -> Alcotest.failf "%s plan accepted" name
      | exception Invalid_argument _ -> ());
      Array.iteri
        (fun i t ->
          check bool
            (Printf.sprintf "%s plan: template %d untouched" name i)
            true
            (State.equal_arch t pooled.(i)))
        before)
    [
      ("descending", [| 7; 3; 1023 |]);
      ("repeated", [| 3; 3; 1023 |]);
      ("word 1024", [| 3; 1024 |]);
      ("negative", [| -1; 1023 |]);
    ]

(* Programs without memory operands need only the fill-buffer seed word:
   the plan collapses to the last data word, which is what makes the
   AR-heavy throughput configurations O(1) per input. *)
let sparse_plan_shape () =
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
          let templates =
            Arena.templates ?plan:(Input.fill_plan prog.Compiled.flat)
              (Arena.create ()) inputs
          in
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
          untouched "Executor.swap_check";
          ignore (Executor.record_events ~templates executor prog inputs);
          untouched "Executor.record_events")
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
   step of the walk. *)
let pathological_unwinds () =
  let open Instruction in
  let mask = binop Opcode.And (Operand.reg Reg.RAX) (Operand.imm64 Layout.line_mask_one_page) in
  let block k =
    Program.block (Printf.sprintf "b%d" k)
      ([
         mov (Operand.sandbox ~disp:(8 * k) Reg.RAX) (Operand.imm (k + 1));
         binop Opcode.Add (Operand.reg Reg.RBX) (Operand.imm 1);
       ]
      @ if k < 10 then [ jcc Cond.Z (Printf.sprintf "b%d" (k + 1)) ] else [])
  in
  let program =
    Program.make
      (Program.block "entry" [ mask ] :: List.init 11 block)
  in
  let prog = Compiled.of_program_exn program in
  let contract = Contract.with_nesting Contract.ct_cond in
  let inputs = batch_inputs 1 7L in
  let fresh = Model.ctraces ~templates:(Input.templates inputs) contract prog inputs in
  let watchdog n = { Watchdog.max_model_steps = n; max_input_millis = None } in
  let trips n templates =
    match Model.ctraces ~watchdog:(watchdog n) ~templates contract prog inputs with
    | _ -> false
    | exception Watchdog.Pathological _ -> true
  in
  (* The walk's length: the smallest budget that does not trip. *)
  let rec steps lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if trips mid (Input.templates inputs) then steps (mid + 1) hi else steps lo mid
  in
  let total = steps 1 1_000_000 in
  check bool "the walk nests deeply" true (total > 2000);
  let templates = Input.templates inputs in
  let copy = State.copy templates.(0) in
  for n = 1 to total - 1 do
    check bool (Printf.sprintf "budget %d trips" n) true (trips n templates);
    if not (State.equal_arch copy templates.(0) && templates.(0).State.pc = copy.State.pc)
    then Alcotest.failf "budget %d: template not restored" n;
    if not (journal_closed templates.(0)) then
      Alcotest.failf "budget %d: a journal level stayed open" n
  done;
  let again = Model.ctraces ~templates contract prog inputs in
  check bool "next run traces like a fresh state" true
    (List.for_all2
       (fun (a : Model.result) (b : Model.result) -> Ctrace.equal a.Model.ctrace b.Model.ctrace)
       fresh again)

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

let outcome_fingerprint = function
  | Fuzzer.No_violation -> "no violation"
  | Fuzzer.Violation v ->
      Format.asprintf "%s @ (%d,%d) ctrace %s" v.Violation.label
        v.Violation.index_a v.Violation.index_b
        (Ctrace.to_string v.Violation.ctrace)

let stats_fingerprint (s : Fuzzer.stats) =
  (* every counter except wall-clock time *)
  Printf.sprintf "tc=%d in=%d eff=%d ineff=%d faulted=%d cand=%d swap=%d nest=%d rounds=%d growths=%d"
    s.Fuzzer.test_cases s.Fuzzer.inputs_tested s.Fuzzer.effective_inputs
    s.Fuzzer.ineffective_test_cases s.Fuzzer.faulted_test_cases
    s.Fuzzer.candidates s.Fuzzer.dismissed_by_swap s.Fuzzer.dismissed_by_nesting
    s.Fuzzer.rounds s.Fuzzer.growths

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
      check string (here "outcome") (outcome_fingerprint oi)
        (outcome_fingerprint oc);
      check string (here "stats") (stats_fingerprint si) (stats_fingerprint sc))
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
        | Ok (Some v) -> outcome_fingerprint (Fuzzer.Violation v)
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
          tc "sparse fill is observation-equivalent" `Quick
            sparse_fill_equivalent;
          tc "fill plans have the expected shape" `Quick sparse_plan_shape;
          tc "mixed-entropy arena batches" `Quick arena_mixed_entropy;
          tc "sparse kernel at every entropy" `Quick
            sparse_kernel_every_entropy;
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
    ]
