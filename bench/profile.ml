(* Component-level profiler for the per-test-case pipeline: wall-clock
   per iteration of each hot-path piece (state materialization/restore,
   CPU run, prime/probe, model run, measurement, full check). Used to
   find the PR 1 bottlenecks (DESIGN.md §6); keep it for future perf
   work — Bechamel only times whole workloads.

   PR 2 adds compiled-vs-interpreted rows: every consumer now takes a
   [Compiled.t], so the engine choice is made here by compiling the same
   flat program with [Compiled.of_flat] (decode-once closures) or
   [Compiled.interpreted] (every step through [Semantics.step]).

   PR 4: [--metrics] skips the micro-timing loops and instead runs a
   short non-detecting fuzz (Target 1 x CT-SEQ) with the metrics
   registry live, then prints the per-stage wall-time breakdown and the
   full registry — the same tables `revizor_cli fuzz --metrics-out`
   derives its JSON from. *)
open Revizor
open Revizor_uarch
module Metrics = Revizor_obs.Metrics

let time label n f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do f () done;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "%-40s %8.3f us/iter (%d iters)\n%!" label (dt /. float n *. 1e6) n

let metrics_profile () =
  let seed = 1L in
  let budget = 200 in
  Printf.printf
    "Per-stage metrics profile: %d test cases, Target 1 x CT-SEQ (seed %Ld)\n%!"
    budget seed;
  let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target1 in
  Metrics.reset ();
  let t0 = Unix.gettimeofday () in
  let _, stats = Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases budget) in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let summary = Metrics.snapshot () in
  Printf.printf "\n%d test cases, %d inputs in %.2fs\n\n" stats.Fuzzer.test_cases
    stats.Fuzzer.inputs_tested elapsed_s;
  print_endline (Report.stage_table summary ~elapsed_s);
  print_newline ();
  print_endline (Report.metrics_table summary)

let () =
  if Array.exists (( = ) "--metrics") Sys.argv then (
    metrics_profile ();
    exit 0);
  let seed = 1L in
  let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target5 in
  let cpu = Cpu.create cfg.Fuzzer.uarch in
  let prng = Prng.create ~seed in
  let inputs = Input.generate_many prng ~entropy:2 ~n:50 in
  let g = Gadgets.spectre_v1 in
  let flat = Revizor_isa.Program.flatten_exn g.Gadgets.program in
  let compiled = Revizor_emu.Compiled.of_flat flat in
  let interp = Revizor_emu.Compiled.interpreted flat in
  let templates = Input.templates inputs in
  let scratch = Revizor_emu.State.create () in
  let input0 = List.hd inputs in
  time "Input.to_state" 2000 (fun () -> ignore (Input.to_state input0));
  time "State.copy_into" 20000 (fun () ->
      Revizor_emu.State.copy_into templates.(0) ~dst:scratch);
  time "Compiled.of_flat (decode once)" 2000 (fun () ->
      ignore (Revizor_emu.Compiled.of_flat flat));
  time "Cpu.run compiled (after restore)" 2000 (fun () ->
      Revizor_emu.State.copy_into templates.(0) ~dst:scratch;
      Cpu.run cpu compiled scratch);
  (* How the model and the executor run an input: on the template itself,
     undone afterwards (the rows around it restore a scratch copy first). *)
  let slot = Revizor_emu.State.slot () in
  time "Cpu.run compiled (run + undo in place)" 2000 (fun () ->
      Revizor_emu.State.save templates.(0) slot;
      Cpu.run cpu compiled templates.(0);
      Revizor_emu.State.undo templates.(0) slot);
  time "Cpu.run interpreted (after restore)" 2000 (fun () ->
      Revizor_emu.State.copy_into templates.(0) ~dst:scratch;
      Cpu.run cpu interp scratch);
  time "Cache.prime" 2000 (fun () -> Cache.prime (Cpu.cache cpu));
  time "prime+probe observe" 2000 (fun () ->
      ignore
        (Attack.observe cpu cfg.Fuzzer.executor.Executor.threat (fun () -> ())));
  time "observe+run" 2000 (fun () ->
      ignore
        (Attack.observe cpu cfg.Fuzzer.executor.Executor.threat (fun () ->
             Revizor_emu.State.copy_into templates.(0) ~dst:scratch;
             Cpu.run cpu compiled scratch)));
  time "Model.run compiled" 2000 (fun () ->
      ignore (Model.run Contract.ct_seq compiled input0));
  time "Model.run interpreted" 2000 (fun () ->
      ignore (Model.run Contract.ct_seq interp input0));
  let executor = Executor.create cpu cfg.Fuzzer.executor in
  time "Executor.measure 50 compiled" 20 (fun () ->
      ignore (Executor.measure ~templates executor compiled inputs));
  time "Executor.measure 50 interpreted" 20 (fun () ->
      ignore (Executor.measure ~templates executor interp inputs));
  time "check_test_case (compiled)" 20 (fun () ->
      ignore (Fuzzer.check_test_case cfg executor g.Gadgets.program inputs));
  let icfg = { cfg with Fuzzer.engine = Fuzzer.Interpreted } in
  time "check_test_case (interpreted)" 20 (fun () ->
      ignore (Fuzzer.check_test_case icfg executor g.Gadgets.program inputs))
