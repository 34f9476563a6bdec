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

let run_on_cpu prog input =
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target5 in
  let cpu = Cpu.create cfg.Fuzzer.uarch in
  let state = Input.to_state input in
  let htrace =
    Attack.observe cpu cfg.Fuzzer.executor.Executor.threat (fun () ->
        Cpu.run cpu prog state)
  in
  (state, Cpu.events cpu, Array.copy (Cpu.port_counts cpu), htrace)

let cpu_identical () =
  each_case (fun ~label ~flat:_ ~compiled ~interp ->
      let input = input_for 23L in
      let s_c, ev_c, pc_c, h_c = run_on_cpu compiled input in
      let s_i, ev_i, pc_i, h_i = run_on_cpu interp input in
      check bool (label ^ ": arch state") true (State.equal_arch s_c s_i);
      check bool (label ^ ": speculation events") true
        (Stdlib.compare ev_c ev_i = 0);
      check (Alcotest.array int) (label ^ ": port counts") pc_i pc_c;
      check bool (label ^ ": htrace") true (Htrace.equal h_c h_i))

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

let batch_inputs n seed =
  Input.generate_many (Prng.create ~seed) ~entropy:2 ~n

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
          tc "fuzzer outcomes and stats are bit-identical" `Slow
            fuzzer_identical;
          tc "check_test_case agrees on spectre-v1" `Quick
            check_test_case_identical;
        ] );
    ]
