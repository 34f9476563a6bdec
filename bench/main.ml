(* Benchmark harness: regenerates every table and evaluation result of the
   paper (Tables 2-5, §6.3-§6.6, §A.5.3, §A.6) with paper-vs-measured
   output, runs the design-choice ablations from DESIGN.md, and finishes
   with a Bechamel micro-benchmark suite measuring the unit cost of each
   table's workload.

   Environment:
     REVIZOR_BENCH_BUDGET   test cases per Table 3 cell   (default 300)
     REVIZOR_BENCH_RUNS     repetitions for Table 4       (default 5)
     REVIZOR_BENCH_SEED     master seed                   (default 1)
     REVIZOR_BENCH_FAST     set to skip the slow tables (smoke mode) *)

open Revizor
module Metrics = Revizor_obs.Metrics
module Telemetry = Revizor_obs.Telemetry

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let budget = env_int "REVIZOR_BENCH_BUDGET" 400
let runs = env_int "REVIZOR_BENCH_RUNS" 5
let seed = Int64.of_int (env_int "REVIZOR_BENCH_SEED" 1)
let fast = Sys.getenv_opt "REVIZOR_BENCH_FAST" <> None

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let timed label f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "[%s took %.1fs]\n%!" label (Unix.gettimeofday () -. t0);
  r

(* --- Table 2: experimental setups ------------------------------------- *)

let print_table2 () =
  section "Table 2: experimental setups";
  List.iter (fun t -> Format.printf "%a@." Target.pp t) Target.all;
  Printf.printf "\nInstruction-set sizes (paper: AR=325, AR+MEM=678, AR+MEM+VAR=687,\nAR+CB=359, AR+MEM+CB=710, AR+MEM+CB+VAR=719):\n";
  let open Revizor_isa in
  List.iter
    (fun (name, subsets) ->
      Printf.printf "  %-16s %4d unique instruction variants\n" name
        (Catalog.count subsets))
    [
      ("AR", [ Catalog.AR ]);
      ("AR+MEM", [ Catalog.AR; Catalog.MEM ]);
      ("AR+MEM+VAR", [ Catalog.AR; Catalog.MEM; Catalog.VAR ]);
      ("AR+CB", [ Catalog.AR; Catalog.CB ]);
      ("AR+MEM+CB", [ Catalog.AR; Catalog.MEM; Catalog.CB ]);
      ("AR+MEM+CB+VAR", [ Catalog.AR; Catalog.MEM; Catalog.CB; Catalog.VAR ]);
    ]

(* --- Table 3 ------------------------------------------------------------ *)

let print_table3 () =
  section
    (Printf.sprintf "Table 3: contract violations (budget %d test cases/cell)"
       budget);
  let cells = timed "table 3" (fun () -> Experiments.table3 ~budget ~seed ()) in
  print_endline (Report.table3 cells);
  print_endline
    "\nLegend: V = violation detected (label, test cases to detection);\n\
     x = no violation within the budget; x* = skipped, a stronger contract\n\
     was already satisfied; 'gadget' = the -var leaks need a rare double\n\
     latency race, demonstrated on the section 6.3 gadget instead (the\n\
     paper's artifact notes the same irreproducibility)."

(* --- Table 4 ------------------------------------------------------------ *)

let print_table4 () =
  section (Printf.sprintf "Table 4: detection time (%d runs per cell)" runs);
  let cells = timed "table 4" (fun () -> Experiments.table4 ~runs ~seed ()) in
  print_endline (Report.table4 ~runs cells);
  print_endline
    "\nPaper (mean detection time over 10 runs): row None: V4 73m25s,\n\
     V1 4m51s, MDS 5m35s, LVI 7m40s; row V4-permitted: V1 3m48s, MDS\n\
     6m37s, LVI 3m06s; row V1-permitted: V4 140m42s, MDS 7m03s, LVI\n\
     3m22s. Shape to reproduce: V4-type detection is an order of magnitude\n\
     slower than the others, and contract-permitted leakage types do not\n\
     prevent detection of the unpermitted one."

(* --- Table 5 ------------------------------------------------------------ *)

let print_table5 () =
  let t5_runs = max 20 (runs * 6) in
  section
    (Printf.sprintf
       "Table 5: inputs to violation on hand-written gadgets (%d runs)" t5_runs);
  let rows = timed "table 5" (fun () -> Experiments.table5 ~runs:t5_runs ~seed ()) in
  print_endline (Report.table5 rows);
  print_endline
    "\nPaper (avg # inputs over 100 seeds): V1 6, V1.1 6, V1-masked 4,\n\
     V4 62, ret2spec 2, MDS-SB 2, MDS-LFB 12. Shape: every gadget is\n\
     detected with few inputs; V4 needs the most, ret2spec/MDS-SB the\n\
     fewest."

(* --- §6.3 novel variants -------------------------------------------------- *)

let gadget_check (g : Gadgets.t) contract target =
  match Experiments.check_gadget ~seed contract target g with
  | Some v ->
      Printf.printf "%-18s vs %-14s on %-28s VIOLATION (%s)\n" g.Gadgets.name
        (Contract.name contract)
        target.Target.uarch.Revizor_uarch.Uarch_config.name v.Violation.label
  | None ->
      Printf.printf "%-18s vs %-14s on %-28s compliant\n" g.Gadgets.name
        (Contract.name contract)
        target.Target.uarch.Revizor_uarch.Uarch_config.name

let print_variants () =
  section "Section 6.3: novel latency-race variants (Fig. 5)";
  gadget_check Gadgets.spectre_v1_var Contract.ct_cond Target.target6;
  gadget_check Gadgets.spectre_v1_var Contract.ct_cond_bpas Target.target6;
  gadget_check Gadgets.spectre_v4_var Contract.ct_bpas Target.target3;
  gadget_check Gadgets.spectre_v4_var Contract.ct_cond_bpas Target.target3;
  gadget_check Gadgets.spectre_v4_var Contract.ct_bpas Target.target4;
  print_endline
    "\nPaper: both variants violate contracts that permit their base\n\
     speculation type (the leaked signal is the operand-dependent division\n\
     latency); the V4 microcode patch also stops the V4 variant (Target 4)."

(* --- §6.4 / §6.6 ------------------------------------------------------------ *)

let print_assumption () =
  section "Section 6.4: do speculative stores modify the cache?";
  print_endline (Report.store_eviction (Experiments.store_eviction_check ~seed ()));
  print_endline
    "\nPaper: Skylake complies (stores modify the cache only at retire);\n\
     Coffee Lake violates — speculative stores DO modify the cache,\n\
     invalidating the STT/KLEESpectre assumption (predicted by CheckMate)."

let print_sensitivity () =
  section "Section 6.6: contract sensitivity (STT, Fig. 6)";
  print_endline (Report.sensitivity (Experiments.contract_sensitivity ~seed ()));
  print_endline
    "\nPaper: CT-SEQ flags both gadgets; ARCH-SEQ flags only Fig. 6b\n\
     (speculatively loaded data), matching what STT-style defences protect."

(* --- §A.5.3 throughput -------------------------------------------------------- *)

let print_throughput () =
  section "Appendix A.5.3: fuzzing throughput (non-detecting configuration)";
  (* Reset the registry so the stage breakdown below covers exactly this
     run, then snapshot it for the BENCH_PR7.json artifact. *)
  Metrics.reset ();
  let t0 = Unix.gettimeofday () in
  let t = Experiments.throughput ~seconds:(if fast then 2. else 10.) ~seed () in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let summary = Metrics.snapshot () in
  print_endline (Report.throughput t);
  Printf.printf "\nPer-stage breakdown (metrics registry):\n";
  print_endline (Report.stage_table summary ~elapsed_s);
  print_endline
    "\nPaper: >200 test cases/hour on real hardware (with 50 inputs x 50\n\
     measurement repetitions each); the simulated CPU is faster, the\n\
     relevant reproduction target is that the pipeline sustains a steady\n\
     test-case rate without detecting violations on the compliant target.";
  (t, summary, elapsed_s)

(* Domain scaling of the campaign's domain pool: the same non-detecting
   configuration across executor-domain counts. Results are bit-identical
   for every count (asserted by the resilience suite), so this table
   reports throughput only. On a 2-vCPU KVM guest (Intel Xeon), over 12
   interleaved fresh-process rounds per configuration, one campaign ran
   at 2 domains a median 1.33x (Target 1 x CT-SEQ, 2000 test cases) and
   1.43x (Target 5 x CT-COND, 300 test cases) the wall-clock rate of one
   domain, faster in 9 of 12 rounds each (single rounds 0.65x-1.92x: the
   host is shared). At 4 domains, past the core count, the rates fell
   back to 0.83x and 1.04x. Expect the curve to follow the host's free
   cores, not the domain count. *)
let print_domain_scaling () =
  section "PR 7: executor-domain scaling (same results at every count)";
  List.map
    (fun d ->
      let t = Experiments.throughput ~seconds:2.0 ~seed ~executor_domains:d () in
      Printf.printf "  %d domain(s): %5d test cases in %.1fs -> %9.0f tc/h\n%!"
        d t.Experiments.test_cases t.Experiments.seconds
        t.Experiments.cases_per_hour;
      (d, t))
    [ 1; 2; 4; 8 ]

(* --- Telemetry overhead (PR 4) ----------------------------------------- *)

(* Times the same full-pipeline workload with the telemetry sink disabled
   (the default: probes still count, spans are a single atomic load and
   skipped) and with a live buffer sink (every stage span rendered to
   JSONL). The PR 2 bechamel baselines above were measured before any
   instrumentation existed, so pipeline speedups of ~1.0x against them
   bound the disabled-mode counter overhead; this A/B bounds the
   additional cost of an enabled sink. *)
let telemetry_overhead () =
  section "Telemetry overhead (sink disabled vs enabled)";
  let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target5 in
  let cpu = Revizor_uarch.Cpu.create cfg.Fuzzer.uarch in
  let executor = Executor.create cpu cfg.Fuzzer.executor in
  let prng = Prng.create ~seed in
  let inputs = Input.generate_many prng ~entropy:2 ~n:50 in
  let g = Gadgets.spectre_v1 in
  let iters = if fast then 30 else 100 in
  let run () =
    ignore (Fuzzer.check_test_case cfg executor g.Gadgets.program inputs)
  in
  let time_iters () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      run ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e3
  in
  (* Alternate the two modes over several rounds and keep the per-mode
     minimum: a single A-then-B pass confounds the comparison with
     warm-up and scheduling noise larger than the effect measured. *)
  let buf = Buffer.create 65536 in
  for _ = 1 to 5 do
    run ()
  done;
  let disabled_ms = ref infinity and enabled_ms = ref infinity in
  for _ = 1 to 3 do
    Telemetry.disable ();
    run ();
    disabled_ms := Float.min !disabled_ms (time_iters ());
    Telemetry.enable_buffer buf;
    Buffer.clear buf;
    run ();
    enabled_ms := Float.min !enabled_ms (time_iters ())
  done;
  Telemetry.disable ();
  let disabled_ms = !disabled_ms and enabled_ms = !enabled_ms in
  let overhead =
    if disabled_ms > 0. then (enabled_ms -. disabled_ms) /. disabled_ms else 0.
  in
  Printf.printf
    "full pipeline, spectre-v1 x CT-SEQ (%d iters):\n\
    \  sink disabled: %.3f ms/iter\n\
    \  sink enabled:  %.3f ms/iter (JSONL to buffer)\n\
    \  sink overhead: %+.1f%%\n"
    iters disabled_ms enabled_ms (100. *. overhead);
  (disabled_ms, enabled_ms, overhead)

(* --- Checkpoint overhead (PR 5) ---------------------------------------- *)

(* Runs a campaign with periodic checkpointing at the CLI's default
   cadence (a full state snapshot + atomic JSON write every 50 test
   cases, plus the final boundary checkpoint) and reports the wall-time
   share of the [stage.checkpoint] span, which brackets exactly the
   snapshot + serialization + write path. The span share is the right
   instrument here: the effect is ~1ms per checkpoint against a
   multi-second campaign, below the run-to-run noise an A/B timing of
   whole campaigns would have to overcome. The acceptance bar is <1%. *)
let checkpoint_overhead () =
  section "Checkpoint overhead (default cadence, span share)";
  let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target1 in
  let n_cases = if fast then 150 else 400 in
  let path = Filename.temp_file "revizor_bench_ckpt" ".json" in
  Metrics.reset ();
  let t0 = Unix.gettimeofday () in
  ignore
    (Fuzzer.fuzz cfg ~checkpoint_every:50
       ~on_checkpoint:(fun snap -> Campaign.save ~path cfg snap)
       ~budget:(Fuzzer.Test_cases n_cases));
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (try Sys.remove path with Sys_error _ -> ());
  let calls, ckpt_ms =
    match
      List.find_opt
        (fun (st : Metrics.stage) -> st.Metrics.st_name = "checkpoint")
        (Metrics.stage_breakdown (Metrics.snapshot ()))
    with
    | Some st -> (st.Metrics.st_calls, float_of_int st.Metrics.st_total_ns /. 1e6)
    | None -> (0, 0.)
  in
  let overhead = if wall_ms > 0. then ckpt_ms /. wall_ms else 0. in
  Printf.printf
    "full campaign, %d test cases, checkpoint every 50:\n\
    \  campaign wall time:  %.1f ms\n\
    \  checkpoints written: %d (%.2f ms each, snapshot + atomic JSON write)\n\
    \  checkpoint share:    %.2f%%\n"
    n_cases wall_ms calls
    (if calls > 0 then ckpt_ms /. float_of_int calls else 0.)
    (100. *. overhead);
  (wall_ms, ckpt_ms, overhead)

(* --- Ablations ------------------------------------------------------------------ *)

let print_ablations () =
  section "Ablations (DESIGN.md section 5)";
  List.iter
    (fun a ->
      print_endline (Report.ablation a);
      print_newline ())
    [
      Experiments.ablation_priming ~seed ();
      Experiments.ablation_noise_filtering ~seed ();
      Experiments.ablation_equivalence ~seed ();
      Experiments.ablation_swap_check ~seed ();
      Experiments.ablation_feedback ~seed ();
    ];
  print_endline "input-entropy sweep (CH2):";
  print_endline (Report.entropy_sweep (Experiments.ablation_entropy ~seed ()));
  print_endline
    "\nspeculation-window sweep (V1 gadget vs CT-COND; paper footnote 3\n\
     sizes the window to the ROB):";
  List.iter
    (fun (w, violated) ->
      Printf.printf "  window %3d: %s\n" w
        (if violated then
           "VIOLATED (model explores less than the hardware speculates)"
         else "compliant"))
    (Experiments.ablation_speculation_window ~seed ())

(* --- Port-contention channel (extension) -------------------------------------------- *)

let print_port_channel () =
  section "Extension: port-contention side channel (paper §7 future work)";
  List.iter
    (fun (g, channel, violated) ->
      Printf.printf "%-18s via %-16s %s\n" g channel
        (if violated then "VIOLATION of CT-SEQ" else "compliant"))
    (Experiments.port_channel_demo ~seed ());
  print_endline
    "\nThe memory-free V1 gadget (a division-gated multiply chain on the\n\
     mispredicted path) is invisible to every cache attack but leaks\n\
     through per-port uop counts — demonstrating the executor's\n\
     extensibility to further channels, as the paper anticipates."

(* --- §A.6 note -------------------------------------------------------------------- *)

let print_a6 () =
  section "Appendix A.6: asymmetric store-bypass variant";
  print_endline
    "The A.6 counterexample needs two same-address loads to observe\n\
     DIFFERENT values inside one transient window (one bypassing the\n\
     store, the other receiving forwarded data). Our store-buffer model\n\
     resolves forwarding uniformly per transient episode, so both loads\n\
     observe the same stale value and the asymmetry cannot occur; this is\n\
     a documented substitution limit (DESIGN.md). The underlying\n\
     mechanism — a load bypassing a pending store — is reproduced by the\n\
     spectre-v4 gadget and Table 3's Target 2/3 rows."

(* --- Bechamel micro-benchmarks ------------------------------------------------------ *)

let bechamel_suite () =
  section "Bechamel: unit cost of each table's workload";
  let open Bechamel in
  let open Toolkit in
  let mk_pipeline_test name contract target (g : Gadgets.t) =
    let cfg = Target.fuzzer_config ~seed contract target in
    let cpu = Revizor_uarch.Cpu.create cfg.Fuzzer.uarch in
    let executor = Executor.create cpu cfg.Fuzzer.executor in
    let prng = Prng.create ~seed in
    let inputs = Input.generate_many prng ~entropy:2 ~n:50 in
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Fuzzer.check_test_case cfg executor g.Gadgets.program inputs)))
  in
  let gen_test =
    let prng = Prng.create ~seed in
    Test.make ~name:"table3: generate+instrument one test case"
      (Staged.stage (fun () ->
           ignore (Generator.generate prng Generator.default_cfg)))
  in
  let model_test =
    let prng = Prng.create ~seed in
    let prog = Generator.generate prng Generator.default_cfg in
    let compiled = Revizor_emu.Compiled.of_program_exn prog in
    let input = Input.generate prng ~entropy:2 in
    Test.make ~name:"table3: one contract trace (model)"
      (Staged.stage (fun () ->
           ignore (Model.run Contract.ct_cond compiled input)))
  in
  let tests =
    Test.make_grouped ~name:"revizor"
      [
        gen_test;
        model_test;
        mk_pipeline_test "table3/4: full pipeline, spectre-v1 x CT-SEQ"
          Contract.ct_seq Target.target5 Gadgets.spectre_v1;
        mk_pipeline_test "table5: full pipeline, spectre-v4 x CT-SEQ"
          Contract.ct_seq Target.target2 Gadgets.spectre_v4;
        mk_pipeline_test "sec 6.4: full pipeline, spec-store-eviction"
          Contract.ct_cond_no_spec_store Target.target8
          Gadgets.spec_store_eviction;
        mk_pipeline_test "sec 6.6: full pipeline, stt-speculative x ARCH-SEQ"
          Contract.arch_seq Target.target5 Gadgets.stt_speculative;
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if fast then 0.2 else 1.0))
      ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ t ] -> rows := (name, t /. 1e6) :: !rows
      | _ -> ())
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (name, ms) -> Printf.printf "%-55s %10.3f ms/run\n" name ms)
    rows;
  rows

(* --- Monitor overhead (PR 8) ------------------------------------------- *)

(* The monitor's campaign cost is one [Monitor.poll] per test case —
   with no client connected, a single non-blocking [accept] (a few µs).
   As with the checkpoint measurement above, the effect is far below
   the run-to-run noise an A/B timing of whole campaigns would have to
   overcome (order-controlled A/B experiments showed ±20% swings on a
   ~0.3% effect), so this measures the added work directly: the
   per-poll cost over a large idle-poll loop, against the per-test-case
   wall time of a monitored campaign. The acceptance bar is <1%. *)
let monitor_overhead () =
  section "Monitor overhead (endpoint attached, no client)";
  let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target1 in
  let n_cases = if fast then 150 else 400 in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rvz-bench-%d.sock" (Unix.getpid ()))
  in
  let mon = Revizor_obs.Monitor.create ~path:sock in
  (* Per-poll cost on an idle endpoint (the campaign steady state). *)
  let polls = 200_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to polls do
    Revizor_obs.Monitor.poll mon
  done;
  let poll_us = (Unix.gettimeofday () -. t0) /. float_of_int polls *. 1e6 in
  (* Wall time of a monitored campaign (one poll per test case). *)
  let campaign () =
    let t0 = Unix.gettimeofday () in
    ignore
      (Fuzzer.fuzz ~monitor:mon ~heartbeat_every:0 cfg
         ~budget:(Fuzzer.Test_cases n_cases));
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  ignore (campaign ());
  let campaign_ms = ref infinity in
  for _ = 1 to 3 do
    campaign_ms := Float.min !campaign_ms (campaign ())
  done;
  Revizor_obs.Monitor.close mon;
  let campaign_ms = !campaign_ms in
  let poll_total_ms = poll_us *. float_of_int n_cases /. 1e3 in
  let overhead = if campaign_ms > 0. then poll_total_ms /. campaign_ms else 0. in
  Printf.printf
    "full campaign, %d test cases, poll every test case:\n\
    \  idle poll:      %.2f us each (non-blocking accept, no client)\n\
    \  campaign wall:  %.1f ms -> %d polls cost %.2f ms\n\
    \  monitor share:  %.3f%%\n"
    n_cases poll_us campaign_ms n_cases poll_total_ms (100. *. overhead);
  (campaign_ms, poll_us, overhead)

(* --- Coverage-atlas overhead (PR 9) ------------------------------------- *)

(* A/B of the same campaign with atlas collection on (features harvested
   from every measurement, registered into the accumulator at each
   commit) vs forced off via the global switch (the executor's event
   collection is unconditional either way; the switch gates only the
   harvest). A speculation-heavy compliant pair — target 5 vs CT-COND,
   where every test case mispredicts branches — so the harvest path runs
   on essentially every measurement. Alternating min-of-rounds, as for
   the telemetry sink. The acceptance bar is <1%. *)
let ucoverage_overhead () =
  section "Coverage-atlas overhead (collection on vs off)";
  let cfg = Target.fuzzer_config ~seed Contract.ct_cond Target.target5 in
  let n_cases = if fast then 100 else 250 in
  let campaign ~atlas () =
    let t0 = Unix.gettimeofday () in
    (if atlas then
       ignore
         (Fuzzer.fuzz ~ucoverage:(Ucoverage.create ()) cfg
            ~budget:(Fuzzer.Test_cases n_cases))
     else begin
       Ucoverage.set_enabled false;
       Fun.protect
         ~finally:(fun () -> Ucoverage.set_enabled true)
         (fun () -> ignore (Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases n_cases)))
     end);
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  ignore (campaign ~atlas:true ());
  let on_ms = ref infinity and off_ms = ref infinity in
  for _ = 1 to 4 do
    off_ms := Float.min !off_ms (campaign ~atlas:false ());
    on_ms := Float.min !on_ms (campaign ~atlas:true ())
  done;
  let on_ms = !on_ms and off_ms = !off_ms in
  let overhead = if off_ms > 0. then (on_ms -. off_ms) /. off_ms else 0. in
  Printf.printf
    "full campaign, %d test cases, speculation-heavy target x CT-COND:\n\
    \  collection off: %.1f ms\n\
    \  collection on:  %.1f ms (harvest + atlas registration)\n\
    \  atlas overhead: %+.2f%%\n"
    n_cases off_ms on_ms (100. *. overhead);
  (off_ms, on_ms, overhead)

(* --- Fleet orchestration overhead (PR 10) -------------------------------- *)

(* What a campaign pays for running through the fleet stack (forked
   1-worker fleet: ledger, leases, heartbeats, shard result, central
   merge) instead of the plain in-process fuzz loop. Target 1 x CT-SEQ
   never violates, so a shard burns its whole budget and both sides do
   identical fuzzing work.

   The cost is per-shard FIXED — one fork plus its copy-on-write
   faults, the child's cold start, one result write, one merge commit —
   and independent of the shard budget (the orchestrator sleeps in
   select between heartbeats; its per-tick work is microseconds). A
   direct A/B of realistic multi-second campaigns cannot resolve a <2%
   bar on this host: CPU seconds inflate with the host's frequency
   phases, which flap by ~10% on second timescales, swamping the
   signal (readings swung from -5% to +6% run to run). So the estimate
   is two-scale: (1) the fixed cost is the median of paired
   back-to-back A/B differences at a SMALL budget, where many pairs
   fit in a short window and pairing cancels the phase; (2) the
   denominator is a realistically sized shard's plain CPU time, where
   phase noise only perturbs the ratio by its own few percent.
   Measured in CPU time via [Unix.times], which folds the reaped
   worker into [tms_cutime]/[tms_cstime]. The acceptance bar is <2%. *)
let fleet_overhead () =
  section "Fleet orchestration overhead (1-worker fleet vs plain fuzz loop)";
  let module Fl = Revizor_fleet.Ledger in
  let module Fo = Revizor_fleet.Orchestrator in
  let cpu_ms () =
    let t = Unix.times () in
    1e3
    *. (t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime
      +. t.Unix.tms_cstime)
  in
  let seed = 21L and n_inputs = 30 in
  let small_budget = 500 and shard_budget = 2500 in
  let spec_of budget =
    {
      (Fl.default_spec ~target:"Target 1" ~contract:"CT-SEQ" ~seeds:[ seed ]) with
      Fl.sp_budget = budget;
      sp_n_inputs = n_inputs;
      sp_workers = 1;
      sp_checkpoint_every = 0;
    }
  in
  let plain budget =
    (* Compact before each timed run (both sides): the fleet side forks,
       and copy-on-write faults against a large benchmark heap would
       bill the parent's garbage to the fleet. *)
    Gc.compact ();
    let t0 = cpu_ms () in
    let cfg =
      Target.fuzzer_config ~seed ~n_inputs Contract.ct_seq Target.target1
    in
    ignore
      (Fuzzer.fuzz ~ucoverage:(Ucoverage.create ()) cfg
         ~budget:(Fuzzer.Test_cases budget));
    cpu_ms () -. t0
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
    | _ -> Unix.unlink path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "revizor-bench-fleet-%d" (Unix.getpid ()))
  in
  let fleet budget =
    rm_rf dir;
    Gc.compact ();
    let t0 = cpu_ms () in
    (match Fo.run ~dir (spec_of budget) with
    | Ok Fo.Completed -> ()
    | Ok Fo.Interrupted -> failwith "fleet bench: interrupted"
    | Error e -> failwith ("fleet bench: " ^ e));
    cpu_ms () -. t0
  in
  ignore (plain small_budget);
  ignore (fleet small_budget);
  let pairs =
    List.init 12 (fun i ->
        if i mod 2 = 0 then (
          let p = plain small_budget in
          let f = fleet small_budget in
          f -. p)
        else
          let f = fleet small_budget in
          let p = plain small_budget in
          f -. p)
  in
  let median xs =
    let a = List.sort compare xs in
    List.nth a (List.length a / 2)
  in
  let fixed_ms = median pairs in
  let p1 = plain shard_budget in
  let p2 = plain shard_budget in
  let plain_ms = Float.min p1 p2 in
  rm_rf dir;
  let fleet_ms = plain_ms +. fixed_ms in
  let overhead = if plain_ms > 0. then fixed_ms /. plain_ms else 0. in
  Printf.printf
    "per-shard fixed cost (median of 12 paired %d-tc A/B runs; fork +\n\
     COW + child cold-start + result write + merge): %+.1f ms\n\
     plain fuzz loop, one %d-tc shard: %.1f ms (CPU time, worker\n\
     folded into the fleet side via times())\n\
    \  fleet overhead:   %+.2f%%\n"
    small_budget fixed_ms shard_budget plain_ms (100. *. overhead);
  (plain_ms, fleet_ms, overhead)

(* --- BENCH_PR10.json machine-readable artifact --------------------------- *)

(* PR 7 numbers, measured on this machine at the PR 7 commit with the
   same Bechamel configuration (seed 1, FAST-mode quota 0.2s) and a
   FAST-mode (2s) throughput run (the "current" section of
   BENCH_PR7.json). Kept hardcoded so every later run reports its
   speedup against the same fixed reference — PR 8 (monitor endpoint,
   heartbeats, GC gauges) and PR 9 (coverage atlas) both add
   observability and must hold these numbers rather than improve them:
   the acceptance bar is <1% overhead for each new collector and ~1.0x
   on every bechamel row. *)
let pr7_baseline_ms =
  [
    ("revizor/table3: generate+instrument one test case", 0.063);
    ("revizor/table3: one contract trace (model)", 0.011);
    ("revizor/table3/4: full pipeline, spectre-v1 x CT-SEQ", 1.219);
    ("revizor/table5: full pipeline, spectre-v4 x CT-SEQ", 1.006);
    ("revizor/sec 6.4: full pipeline, spec-store-eviction", 1.918);
    ("revizor/sec 6.6: full pipeline, stt-speculative x ARCH-SEQ", 1.608);
  ]

(* (seconds, test_cases, cases_per_hour) of the PR 7 throughput run *)
let pr7_baseline_throughput = (2.0, 672, 1208852.)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_bench_json ~rows ~(throughput : Experiments.throughput)
    ~(stage_summary : Metrics.summary) ~stage_elapsed_s ~domain_scaling
    ~(telemetry : float * float * float) ~(checkpoint : float * float * float)
    ~(monitor : float * float * float) ~(ucoverage : float * float * float)
    ~(fleet : float * float * float) =
  let path =
    Option.value
      (Sys.getenv_opt "REVIZOR_BENCH_JSON")
      ~default:"BENCH_PR10.json"
  in
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let add_ms_table indent kvs =
    List.iteri
      (fun i (name, ms) ->
        add "%s\"%s\": %.3f%s\n" indent (json_escape name) ms
          (if i = List.length kvs - 1 then "" else ","))
      kvs
  in
  let bl_sec, bl_tc, bl_cph = pr7_baseline_throughput in
  add "{\n";
  add "  \"pr\": 10,\n";
  add "  \"seed\": %Ld,\n" seed;
  add "  \"fast\": %b,\n" fast;
  add "  \"baseline\": {\n";
  add "    \"bechamel_ms_per_run\": {\n";
  add_ms_table "      " pr7_baseline_ms;
  add "    },\n";
  add
    "    \"throughput\": { \"seconds\": %.1f, \"test_cases\": %d, \
     \"cases_per_hour\": %.0f }\n"
    bl_sec bl_tc bl_cph;
  add "  },\n";
  add "  \"current\": {\n";
  add "    \"bechamel_ms_per_run\": {\n";
  add_ms_table "      " rows;
  add "    },\n";
  add
    "    \"throughput\": { \"seconds\": %.1f, \"test_cases\": %d, \
     \"inputs\": %d, \"cases_per_hour\": %.0f }\n"
    throughput.Experiments.seconds throughput.Experiments.test_cases
    throughput.Experiments.inputs throughput.Experiments.cases_per_hour;
  add "  },\n";
  (* Per-stage wall-time breakdown of the throughput run, from the
     metrics registry (PR 4). *)
  let stages = Metrics.stage_breakdown stage_summary in
  let wall_ns = stage_elapsed_s *. 1e9 in
  let accounted_ns =
    List.fold_left (fun acc st -> acc + st.Metrics.st_total_ns) 0 stages
  in
  add "  \"stages\": {\n";
  List.iteri
    (fun i (st : Metrics.stage) ->
      add
        "    \"%s\": { \"calls\": %d, \"total_ns\": %d, \"share\": %.4f }%s\n"
        (json_escape st.Metrics.st_name)
        st.Metrics.st_calls st.Metrics.st_total_ns
        (if wall_ns > 0. then float_of_int st.Metrics.st_total_ns /. wall_ns
         else 0.)
        (if i = List.length stages - 1 then "" else ","))
    stages;
  add "  },\n";
  add "  \"accounted_share\": %.4f,\n"
    (if wall_ns > 0. then float_of_int accounted_ns /. wall_ns else 0.);
  add "  \"domain_scaling\": [\n";
  List.iteri
    (fun i (d, (t : Experiments.throughput)) ->
      add
        "    { \"domains\": %d, \"test_cases\": %d, \"cases_per_hour\": %.0f \
         }%s\n"
        d t.Experiments.test_cases t.Experiments.cases_per_hour
        (if i = List.length domain_scaling - 1 then "" else ","))
    domain_scaling;
  add "  ],\n";
  let tel_disabled, tel_enabled, tel_overhead = telemetry in
  add
    "  \"telemetry\": { \"sink_disabled_ms\": %.3f, \"sink_enabled_ms\": \
     %.3f, \"sink_overhead\": %.4f },\n"
    tel_disabled tel_enabled tel_overhead;
  let ck_wall, ck_ms, ck_overhead = checkpoint in
  add
    "  \"checkpoint\": { \"campaign_ms\": %.3f, \"checkpoint_ms\": %.3f, \
     \"overhead\": %.4f },\n"
    ck_wall ck_ms ck_overhead;
  let mon_campaign, mon_poll_us, mon_overhead = monitor in
  add
    "  \"monitor\": { \"campaign_ms\": %.3f, \"poll_us\": %.3f, \
     \"overhead\": %.4f },\n"
    mon_campaign mon_poll_us mon_overhead;
  let uc_off, uc_on, uc_overhead = ucoverage in
  add
    "  \"ucoverage\": { \"collection_off_ms\": %.3f, \"collection_on_ms\": \
     %.3f, \"overhead\": %.4f },\n"
    uc_off uc_on uc_overhead;
  let fl_plain, fl_fleet, fl_overhead = fleet in
  add
    "  \"fleet\": { \"plain_cpu_ms\": %.3f, \"fleet_cpu_ms\": %.3f, \
     \"overhead\": %.4f },\n"
    fl_plain fl_fleet fl_overhead;
  add "  \"speedup\": {\n";
  let speedups =
    List.filter_map
      (fun (name, ms) ->
        match List.assoc_opt name pr7_baseline_ms with
        | Some base when ms > 0. -> Some (name, base /. ms)
        | _ -> None)
      rows
  in
  List.iteri
    (fun i (name, x) ->
      add "    \"%s\": %.2f%s\n" (json_escape name) x
        (if i = List.length speedups - 1 then "" else ","))
    speedups;
  add "  }\n";
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\n[wrote %s]\n%!" path

let () =
  Printf.printf "Revizor reproduction benchmark harness (seed %Ld%s)\n%!" seed
    (if fast then ", FAST mode" else "");
  (* Must run before any section that spawns domains: OCaml 5 forbids
     Unix.fork once another domain has ever been created in the
     process, and the fleet forks its workers. *)
  let fleet = fleet_overhead () in
  print_table2 ();
  if not fast then begin
    print_table3 ();
    print_table4 ();
    print_table5 ()
  end
  else print_endline "\n[REVIZOR_BENCH_FAST: skipping Tables 3-5]";
  print_variants ();
  print_assumption ();
  print_sensitivity ();
  let throughput, stage_summary, stage_elapsed_s = print_throughput () in
  let domain_scaling = print_domain_scaling () in
  print_port_channel ();
  print_ablations ();
  print_a6 ();
  let telemetry = telemetry_overhead () in
  let checkpoint = checkpoint_overhead () in
  let monitor = monitor_overhead () in
  let ucoverage = ucoverage_overhead () in
  let rows = bechamel_suite () in
  write_bench_json ~rows ~throughput ~stage_summary ~stage_elapsed_s
    ~domain_scaling ~telemetry ~checkpoint ~monitor ~ucoverage ~fleet;
  print_endline "\nDone."
