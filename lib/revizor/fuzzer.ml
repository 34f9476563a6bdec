open Revizor_isa
open Revizor_uarch
module Metrics = Revizor_obs.Metrics
module Probe = Revizor_obs.Probe
module Telemetry = Revizor_obs.Telemetry
module Json = Revizor_obs.Json
module Monitor = Revizor_obs.Monitor
module Faultpoint = Revizor_obs.Faultpoint

(* Per-stage probes (§"Observability", DESIGN.md §7): each names a
   [stage.<name>.*] metric triple and emits a JSONL span when the
   telemetry sink is enabled. Together the stages account for the
   pipeline's wall time, so the dashboards and perfbench's stage
   breakdown are computed from these. *)
let sp_generate = Probe.create "generate"
let sp_checkpoint = Probe.create "checkpoint"
let sp_compile = Probe.create "compile"
let sp_materialize = Probe.create "materialize"
let sp_model = Probe.create "model"
let sp_execute = Probe.create "execute"
let sp_analyze = Probe.create "analyze"
let sp_swap_check = Probe.create "swap_check"
let sp_nesting = Probe.create "nesting_recheck"

(* The loop's inter-stage residual: per-iteration wall time not covered
   by any stage span above (input-list generation, stats and coverage
   bookkeeping, GC pauses landing between stages). Attributed via
   [Probe.add_ns] so the stage breakdown accounts for ≥95% of the
   campaign's wall time by construction. *)
let sp_loop_other = Probe.create "loop.other"

let stage_probes =
  [
    sp_generate; sp_checkpoint; sp_compile; sp_materialize; sp_model;
    sp_execute; sp_analyze; sp_swap_check; sp_nesting;
  ]

let stages_total_ns () =
  List.fold_left (fun acc p -> acc + Probe.time_ns p) 0 stage_probes

(* Registry mirrors of [stats]: same totals, but process-wide (campaigns
   run in one process sum into them) and snapshotable mid-run by
   dashboards. *)
let m_test_cases = Metrics.counter "fuzzer.test_cases"
let m_inputs_tested = Metrics.counter "fuzzer.inputs_tested"
let m_effective = Metrics.counter "fuzzer.effective_inputs"
let m_ineffective_tc = Metrics.counter "fuzzer.ineffective_test_cases"
let m_faulted = Metrics.counter "fuzzer.faulted_test_cases"
let m_candidates = Metrics.counter "fuzzer.candidates"
let m_dismissed_swap = Metrics.counter "fuzzer.dismissed_by_swap"
let m_dismissed_nesting = Metrics.counter "fuzzer.dismissed_by_nesting"
let m_rounds = Metrics.counter "fuzzer.rounds"
let m_growths = Metrics.counter "fuzzer.growths"
let m_absorbed = Metrics.counter "fault.absorbed"
let m_checkpoints = Metrics.counter "fuzzer.checkpoints"
let g_n_insts = Metrics.gauge "gen.n_insts"
let g_n_blocks = Metrics.gauge "gen.n_blocks"
let g_max_mem = Metrics.gauge "gen.max_mem_accesses"
let g_n_inputs = Metrics.gauge "gen.n_inputs"
let g_elapsed = Metrics.gauge "fuzzer.elapsed_s"

(* Runtime-health gauges, sampled at round boundaries (and once at
   campaign start): cheap [Gc.quick_stat] reads, so dashboards and the
   monitor endpoint can watch allocator pressure without the campaign
   paying for a full heap walk. Gauges, not counters: they mirror the
   runtime's own cumulative numbers. [gc.minor_words] reads
   [Gc.minor_words ()], whose count includes the current minor heap:
   [Gc.quick_stat]'s only advances at minor collections, so it can miss a
   whole nursery of allocation. It counts the sampling domain's
   allocation, which is all of it with one executor domain. *)
let g_gc_minor = Metrics.gauge "gc.minor_collections"
let g_gc_major = Metrics.gauge "gc.major_collections"
let g_gc_compactions = Metrics.gauge "gc.compactions"
let g_gc_heap_words = Metrics.gauge "gc.heap_words"
let g_gc_minor_words = Metrics.gauge "gc.minor_words"
let g_domain_count = Metrics.gauge "runtime.domain_count"

let sample_runtime () =
  let st = Gc.quick_stat () in
  Metrics.set_gauge g_gc_minor (float_of_int st.Gc.minor_collections);
  Metrics.set_gauge g_gc_major (float_of_int st.Gc.major_collections);
  Metrics.set_gauge g_gc_compactions (float_of_int st.Gc.compactions);
  Metrics.set_gauge g_gc_heap_words (float_of_int st.Gc.heap_words);
  Metrics.set_gauge g_gc_minor_words (Gc.minor_words ())

(* Which execution engine runs the test programs. [Compiled] is the
   decode-once closure engine; [Interpreted] routes every step through
   [Semantics.step]. The two are bit-identical by construction (and by the
   differential test suite); [Interpreted] exists to rule the compiler out
   of a surprising result and as the differential-testing reference. *)
type engine = Compiled | Interpreted

type config = {
  contract : Contract.t;
  uarch : Uarch_config.t;
  executor : Executor.config;
  gen_cfg : Generator.cfg;
  n_inputs : int;
  entropy : int;
  round_length : int;
  seed : int64;
  executor_domains : int;
  engine : engine;
  watchdog : Watchdog.t;
}

let default_config ?(seed = 1L) contract uarch executor =
  {
    contract;
    uarch;
    executor;
    gen_cfg = Generator.default_cfg;
    n_inputs = 50;
    entropy = 2;
    round_length = 25;
    seed;
    executor_domains = 1;
    engine = Compiled;
    watchdog = Watchdog.default;
  }

let compile_with engine flat =
  match engine with
  | Compiled -> Revizor_emu.Compiled.of_flat flat
  | Interpreted -> Revizor_emu.Compiled.interpreted flat

type stats = {
  mutable test_cases : int;
  mutable inputs_tested : int;
  mutable effective_inputs : int;
  mutable ineffective_test_cases : int;
  mutable faulted_test_cases : int;
  mutable skipped_pathological : int;
  mutable candidates : int;
  mutable dismissed_by_swap : int;
  mutable dismissed_by_nesting : int;
  mutable rounds : int;
  mutable growths : int;
  mutable elapsed_s : float;
}

let fresh_stats () =
  {
    test_cases = 0;
    inputs_tested = 0;
    effective_inputs = 0;
    ineffective_test_cases = 0;
    faulted_test_cases = 0;
    skipped_pathological = 0;
    candidates = 0;
    dismissed_by_swap = 0;
    dismissed_by_nesting = 0;
    rounds = 0;
    growths = 0;
    elapsed_s = 0.;
  }

let copy_stats s = { s with test_cases = s.test_cases }

type outcome = Violation of Violation.t | No_violation
type budget = Test_cases of int

let grown_inputs_cap = 400

(* Test cases between [fuzz.heartbeat] telemetry events. *)
let heartbeat_every = 50

let nursery_words = 1024 * 1024
let grow_inputs n = Int.min grown_inputs_cap (n + (n / 2))

(* Everything the campaign loop mutates, captured at a test-case
   boundary. Restoring a snapshot and continuing reproduces the
   uninterrupted run bit for bit: the PRNGs are single-int64-state
   xorshift generators, the generator growth schedule is a pure function
   of the coverage set and round counters, and checkpoints are only taken
   between test cases, never inside one. [sn_stats.elapsed_s] carries the
   accumulated wall time (the one field excluded from bit-identity). *)
type snapshot = {
  sn_prng : int64;  (** main campaign PRNG *)
  sn_gen_cfg : Generator.cfg;
  sn_n_inputs : int;
  sn_in_round : int;
  sn_combos_at_round_start : int;
  sn_stats : stats;
  sn_coverage : Coverage.t;
  sn_ucoverage : Ucoverage.t;
}

(* Partition the inputs by contract trace. A test case's per-input
   arrays (ctraces here, htraces below) are built with [Array.make] over
   a static value and filled in place: [Array.of_list], [Array.map] and
   [Array.init] hand their first element to [caml_make_vect] as the
   initial value, and for an array above 256 words whose initial value
   is young it runs a minor collection first — promoting the whole test
   case in flight. Such an array lives in the major heap, so each young
   value stored into it stays reachable from the remembered set until
   the next minor collection: once the check is done with an array it is
   overwritten with the static value, so a dead array promotes nothing
   (DESIGN.md §6). *)
let classes_of results =
  let ctraces = Array.make (List.length results) Ctrace.empty in
  List.iteri (fun i (r : Model.result) -> ctraces.(i) <- r.Model.ctrace) results;
  let classes = Analyzer.input_classes ctraces in
  Array.fill ctraces 0 (Array.length ctraces) Ctrace.empty;
  classes

(* The nesting re-check (§5.4): recompute contract traces with nested
   speculation enabled; the violating pair must still share a class and
   still diverge. *)
let nesting_recheck ?templates config prog inputs htraces
    (cand : Analyzer.candidate) =
  if config.contract.Contract.nesting then true
  else begin
    let nested = Contract.with_nesting config.contract in
    let results =
      Probe.with_span sp_nesting (fun () ->
          Model.ctraces ~watchdog:config.watchdog ?templates ~stream:`First
            nested prog inputs)
    in
    if List.exists (fun (r : Model.result) -> r.Model.faulted) results then false
    else
      let classes = classes_of results in
      (* The original pair must still witness a violation under the more
         permissive (nested) contract. *)
      List.exists
        (fun cls ->
          List.mem cand.Analyzer.index_a cls.Analyzer.members
          && List.mem cand.Analyzer.index_b cls.Analyzer.members
          && not
               (Htrace.comparable htraces.(cand.Analyzer.index_a)
                  htraces.(cand.Analyzer.index_b)))
        classes
  end

type checked = {
  violation : Violation.t option;
  effective : int;
  patterns : Coverage.pattern list;
  ucov_features : Ucoverage.feature list;
      (* atlas features harvested from this test case's measurements — a
         pure function of the measurement, so computing it on a worker
         domain is deterministic; [] when nothing was measured *)
  candidate_seen : bool;
  dismissed_swap : bool;
  dismissed_nesting : bool;
}

(* The per-test-case pipeline after generation: compile, materialize,
   model, analyze, measure, hunt. *)
let check_test_case_full ?arena config executor program inputs :
    (checked, string) result =
  match Program.flatten program with
  | Error msg -> Error msg
  | Ok flat ->
      (* Compile the program exactly once per test case: the model passes
         (including the nesting re-check), every executor warm-up round,
         measurement repetition and swap-check re-measurement all reuse
         the same decoded descriptors, raw closures and fused
         superinstruction blocks. *)
      let prog =
        Probe.with_span sp_compile (fun () -> compile_with config.engine flat)
      in
      (* Materialize each input's architectural state exactly once per
         test case; the model passes, the executor's warm-up/measurement
         repetitions and the swap-check re-measurements all run on these
         templates and undo themselves. A campaign-owned arena refills
         the same pooled states per test case instead of allocating fresh
         ones. Data words are filled on their first access. *)
      let templates =
        Probe.with_span sp_materialize (fun () ->
            match arena with
            | Some a -> Arena.templates a inputs
            | None -> Input.templates inputs)
      in
      let results =
        Probe.with_span sp_model (fun () ->
            Model.ctraces ~watchdog:config.watchdog ~templates ~stream:`First
              config.contract prog inputs)
      in
      (* The fill count goes to the registry once the test case's last
         run is over, on each of the returns below. *)
      let counted r =
        Arena.count_fills templates;
        r
      in
      if List.exists (fun (r : Model.result) -> r.Model.faulted) results then
        counted (Error "architectural fault")
      else
        let patterns =
          match results with
          | first :: _ -> Coverage.patterns_of_stream first.Model.stream
          | [] -> []
        in
        let classes, effective =
          Probe.with_span sp_analyze (fun () ->
              let classes = classes_of results in
              (classes, Analyzer.effective_inputs classes))
        in
        let no_violation ?(ucov_features = []) ?(candidate_seen = false)
            ?(dismissed_swap = false) ?(dismissed_nesting = false) () =
          Ok
            {
              violation = None;
              effective;
              patterns;
              ucov_features;
              candidate_seen;
              dismissed_swap;
              dismissed_nesting;
            }
        in
        if classes = [] then counted (no_violation ())
        else
          let measurements =
            Probe.with_span sp_execute (fun () ->
                Executor.measure ~templates executor prog inputs)
          in
          (* Harvest the coverage atlas's features from the measurement's
             speculation record — bookkeeping over data the measurement
             already produced, never an extra run. *)
          let ucov_features =
            Ucoverage.features_of_measurements
              ~descs:prog.Revizor_emu.Compiled.descs measurements
          in
          let htraces = Executor.htraces_of measurements in
          Probe.with_span sp_analyze (fun () -> Analyzer.record_htraces htraces);
          (* A dismissed pair does not clear the test case: another pair of
             the same measurement set may witness a genuine (data-caused)
             divergence, so retry a bounded number of candidates. *)
          let rec hunt excluding attempts ~swapped ~nested =
            if attempts <= 0 then
              no_violation ~ucov_features ~candidate_seen:true
                ~dismissed_swap:swapped ~dismissed_nesting:nested ()
            else
              match
                Probe.with_span sp_analyze (fun () ->
                    Analyzer.find_violation ~excluding classes htraces)
              with
              | None ->
                  no_violation ~ucov_features ~candidate_seen:(excluding <> [])
                    ~dismissed_swap:swapped ~dismissed_nesting:nested ()
              | Some cand ->
                  let pair = (cand.Analyzer.index_a, cand.Analyzer.index_b) in
                  if
                    not
                      (Probe.with_span sp_swap_check (fun () ->
                           Executor.swap_check ~templates ~base:htraces executor
                             prog inputs
                             cand.Analyzer.index_a cand.Analyzer.index_b))
                  then
                    hunt (pair :: excluding) (attempts - 1) ~swapped:true ~nested
                  else if
                    not
                      (nesting_recheck ~templates config prog inputs htraces
                         cand)
                  then
                    hunt (pair :: excluding) (attempts - 1) ~swapped ~nested:true
                  else confirm cand
          and confirm cand =
                (* Attribute the violation to the mechanisms whose
                   transient touches appear in the trace difference. *)
                let diff_sets =
                  let a = htraces.(cand.Analyzer.index_a)
                  and b = htraces.(cand.Analyzer.index_b) in
                  let d = Htrace.union (Htrace.diff a b) (Htrace.diff b a) in
                  match config.executor.Executor.threat.Attack.mode with
                  | Attack.Prime_probe -> d
                  | Attack.Flush_reload | Attack.Evict_reload ->
                      (* observations are lines; events record sets *)
                      Htrace.of_list
                        (List.map (fun l -> l mod 64) (Htrace.elements d))
                  | Attack.Port_contention ->
                      (* port observations do not map to cache sets: fall
                         back to the unfiltered mechanism list *)
                      Htrace.empty
                in
                let relevant idx =
                  List.filter_map
                    (fun (k, sets) ->
                      if Htrace.is_empty (Htrace.inter sets diff_sets) then None
                      else Some k)
                    measurements.(idx).Executor.events
                in
                let mechanisms =
                  match
                    List.sort_uniq Stdlib.compare
                      (relevant cand.Analyzer.index_a
                      @ relevant cand.Analyzer.index_b)
                  with
                  | [] ->
                      List.sort_uniq Stdlib.compare
                        (measurements.(cand.Analyzer.index_a).Executor.kinds
                        @ measurements.(cand.Analyzer.index_b).Executor.kinds)
                  | ms -> ms
                in
                let violation =
                  Violation.make ~contract:config.contract
                    ~mds_patch:config.uarch.Uarch_config.mds_patch
                    ~program ~inputs cand ~mechanisms
                in
                Ok
                  {
                    violation = Some violation;
                    effective;
                    patterns;
                    ucov_features;
                    candidate_seen = true;
                    dismissed_swap = false;
                    dismissed_nesting = false;
                  }
          in
          let checked = hunt [] 5 ~swapped:false ~nested:false in
          Executor.release measurements;
          Array.fill htraces 0 (Array.length htraces) Htrace.empty;
          counted checked

let check_test_case config executor program inputs =
  Result.map (fun c -> c.violation)
    (check_test_case_full config executor program inputs)

(* Everything a test case can come back as. Folding the two absorbable
   exceptions into a value lets a pooled check ship its outcome across
   domains as data, and gives the loop a single commit path. *)
type tc_outcome =
  | O_ok of checked
  | O_error of string
  | O_pathological of string
  | O_injected of string

let classify f =
  match f () with
  | Ok checked -> O_ok checked
  | Error msg -> O_error msg
  | exception Watchdog.Pathological reason -> O_pathological reason
  | exception Faultpoint.Injected point -> O_injected point

(* A generated-but-not-yet-committed test case. [p_prng] is the main
   PRNG's state right after this test case was generated: committing in
   generation order and snapshotting that state keeps checkpoints
   independent of how far generation has run ahead. [p_outcome] yields
   the checked outcome — the inline check itself at one domain, the
   await of its pool future otherwise. *)
type tc_pending = {
  p_tc : int;
  p_prng : int64;
  p_inputs : int;
  p_outcome : unit -> tc_outcome;
}

let set_gen_gauges (cfg : Generator.cfg) ~n_inputs =
  Metrics.set_gauge g_n_insts (float_of_int cfg.Generator.n_insts);
  Metrics.set_gauge g_n_blocks (float_of_int cfg.Generator.n_blocks);
  Metrics.set_gauge g_max_mem (float_of_int cfg.Generator.max_mem_accesses);
  Metrics.set_gauge g_n_inputs (float_of_int n_inputs)

let fuzz ?on_progress ?(should_stop = fun () -> false) ?resume
    ?(checkpoint_every = 0) ?on_checkpoint ?monitor ?ucoverage config
    ~budget:(Test_cases budget) =
  (* Campaign GC tuning: the loop allocates a steady stream of short-lived
     values (model results, event lists, analyzer classes); the default
     256k-word minor heap fills within a test case at a few hundred
     inputs and promotes values that die moments later. 1M words (8 MB)
     holds two to four whole test cases at the 400-input cap, so a minor
     collection copies only the one in flight — provided nothing forces
     collections early (see [classes_of]). A larger nursery buys nothing
     more and costs resident memory. Only ever grows the setting, so a
     caller's own tuning wins. *)
  (let g = Gc.get () in
   if g.Gc.minor_heap_size < nursery_words then
     Gc.set { g with Gc.minor_heap_size = nursery_words });
  let prng =
    match resume with
    | Some s -> Prng.of_state s.sn_prng
    | None -> Prng.create ~seed:config.seed
  in
  (* Noise draws are keyed on (noise seed, test-case coordinates): there
     is no sequential noise stream to rewind on resume. *)
  let cpu = Cpu.create config.uarch in
  let executor = Executor.create cpu config.executor in
  (* One template arena per campaign: every test case refills the same
     pooled input states (bit-identical to fresh allocation, see
     {!Arena}). *)
  let arena = Arena.create () in
  let exec_domains = max 1 config.executor_domains in
  let pool = if exec_domains > 1 then Some (Pool.create exec_domains) else None in
  let stats =
    match resume with
    | Some s -> copy_stats s.sn_stats
    | None -> fresh_stats ()
  in
  let coverage =
    match resume with
    | Some s -> Coverage.copy s.sn_coverage
    | None -> Coverage.create ()
  in
  (* The atlas is caller-owned when given (so the CLI can read it after
     the campaign); on resume the snapshot's contents win either way. *)
  let ucov = match ucoverage with Some u -> u | None -> Ucoverage.create () in
  (match resume with
  | Some s -> Ucoverage.assign ucov ~from:(Ucoverage.copy s.sn_ucoverage)
  | None -> ());
  let base_elapsed = stats.elapsed_s in
  let started = Unix.gettimeofday () in
  let gen_cfg =
    ref (match resume with Some s -> s.sn_gen_cfg | None -> config.gen_cfg)
  in
  let n_inputs =
    ref (match resume with Some s -> s.sn_n_inputs | None -> config.n_inputs)
  in
  set_gen_gauges !gen_cfg ~n_inputs:!n_inputs;
  Metrics.set_gauge g_domain_count (float_of_int exec_domains);
  sample_runtime ();
  if Telemetry.enabled () then
    Telemetry.event "fuzz.start"
      [
        ("seed", Json.String (Printf.sprintf "0x%Lx" config.seed));
        ("contract", Json.String (Contract.name config.contract));
        ("uarch", Json.String config.uarch.Uarch_config.name);
        ("n_inputs", Json.Int config.n_inputs);
        ("executor_domains", Json.Int exec_domains);
      ];
  let combos_at_round_start =
    ref (match resume with Some s -> s.sn_combos_at_round_start | None -> 0)
  in
  let in_round =
    ref (match resume with Some s -> s.sn_in_round | None -> 0)
  in
  let elapsed_now () = base_elapsed +. (Unix.gettimeofday () -. started) in
  (* The campaign's live status: the monitor's [status] reply and the
     [fuzz.heartbeat] event both carry exactly these fields. *)
  let live_status () =
    let elapsed = elapsed_now () in
    [
      ("test_cases", Json.Int stats.test_cases);
      ("rounds", Json.Int stats.rounds);
      ("inputs_tested", Json.Int stats.inputs_tested);
      ("coverage_combinations", Json.Int (Coverage.total_combinations coverage));
      ( "throughput_per_hour",
        Json.Float
          (if elapsed <= 0. then 0.
           else float_of_int stats.test_cases /. elapsed *. 3600.) );
      ("gen_insts", Json.Int !gen_cfg.Generator.n_insts);
      ("gen_blocks", Json.Int !gen_cfg.Generator.n_blocks);
      ("n_inputs", Json.Int !n_inputs);
      ("elapsed_s", Json.Float elapsed);
      ("ucov_features", Json.Int (Ucoverage.distinct ucov));
      ( "ucov_per_1k_tc",
        Json.Float (Ucoverage.rate_per_1k ucov ~test_cases:stats.test_cases) );
    ]
  in
  (* Monitor endpoint state: the provider closures below are consulted
     from [Monitor.poll] — which only ever runs on this domain, at
     test-case boundaries — so they can read the loop's mutable state
     without synchronization. *)
  let campaign_state = ref "running" in
  let last_checkpoint = ref None in
  (match monitor with
  | None -> ()
  | Some mon ->
      Monitor.set_provider mon (fun cmd ->
          let reply fields = Some (("state", Json.String !campaign_state) :: fields) in
          match cmd with
          | "status" -> reply (live_status ())
          | "coverage" ->
              (* The atlas in one query: totals, per-mechanism counts and
                 first hits, saturation state. *)
              reply (Ucoverage.summary_fields ucov ~test_cases:stats.test_cases)
          | "health" ->
              reply
                [
                  ("watchdog_trips", Json.Int (Metrics.value Watchdog.m_skipped));
                  ("faulted_test_cases", Json.Int stats.faulted_test_cases);
                  ("skipped_pathological", Json.Int stats.skipped_pathological);
                  ( "checkpoint_age_s",
                    match !last_checkpoint with
                    | None -> Json.Null
                    | Some t -> Json.Float (Unix.gettimeofday () -. t) );
                ]
          | _ -> None));
  (* [prng_state] is the main PRNG as of the last committed test case's
     generation: generation may have run ahead of the commit point, so
     the loop passes the state recorded per test case. *)
  let take_snapshot ~prng_state =
    {
      sn_prng = prng_state;
      sn_gen_cfg = !gen_cfg;
      sn_n_inputs = !n_inputs;
      sn_in_round = !in_round;
      sn_combos_at_round_start = !combos_at_round_start;
      sn_stats =
        (let s = copy_stats stats in
         s.elapsed_s <- elapsed_now ();
         s);
      sn_coverage = Coverage.copy coverage;
      sn_ucoverage = Ucoverage.copy ucov;
    }
  in
  let emit_checkpoint ~prng_state =
    match on_checkpoint with
    | None -> ()
    | Some emit ->
        Probe.with_span sp_checkpoint (fun () ->
            Metrics.incr m_checkpoints;
            emit (take_snapshot ~prng_state);
            last_checkpoint := Some (Unix.gettimeofday ()))
  in
  let result = ref No_violation in
  (* Fold a test case's outcome into the stats, coverage and the campaign
     result, in test-case order. *)
  let commit_outcome outcome =
    match outcome with
    | O_pathological reason ->
        (* A step/time budget tripped mid-model: skip the test case,
           count it, and keep the campaign alive. *)
        stats.skipped_pathological <- stats.skipped_pathological + 1;
        Metrics.incr Watchdog.m_skipped;
        if Telemetry.enabled () then
          Telemetry.event "fuzz.skipped_pathological"
            [ ("reason", Json.String reason) ]
    | O_injected point ->
        (* An armed fault fired inside the pipeline (model stage or
           executor measurement): absorb it like a faulted test case and
           record the degradation. *)
        stats.faulted_test_cases <- stats.faulted_test_cases + 1;
        Metrics.incr m_faulted;
        Metrics.incr m_absorbed;
        if Telemetry.enabled () then
          Telemetry.event "fault.absorbed" [ ("point", Json.String point) ]
    | O_error _ ->
        stats.faulted_test_cases <- stats.faulted_test_cases + 1;
        Metrics.incr m_faulted
    | O_ok checked ->
        stats.effective_inputs <- stats.effective_inputs + checked.effective;
        Metrics.add m_effective checked.effective;
        if checked.effective = 0 then begin
          stats.ineffective_test_cases <- stats.ineffective_test_cases + 1;
          Metrics.incr m_ineffective_tc
        end;
        if checked.candidate_seen then begin
          stats.candidates <- stats.candidates + 1;
          Metrics.incr m_candidates
        end;
        if checked.dismissed_swap then begin
          stats.dismissed_by_swap <- stats.dismissed_by_swap + 1;
          Metrics.incr m_dismissed_swap
        end;
        if checked.dismissed_nesting then begin
          stats.dismissed_by_nesting <- stats.dismissed_by_nesting + 1;
          Metrics.incr m_dismissed_nesting
        end;
        Coverage.register coverage ~patterns:checked.patterns
          ~effective:(checked.effective > 0);
        (* [stats.test_cases] is this test case's index: the commit sets
           it before folding the outcome in. *)
        Ucoverage.register ucov ~tc:stats.test_cases checked.ucov_features;
        (match checked.violation with
        | Some v ->
            result := Violation v;
            if Telemetry.enabled () then
              Telemetry.event "fuzz.violation"
                [ ("summary", Json.String (Violation.summary v)) ]
        | None -> ())
  in
  (* Round accounting, generator growth and the periodic checkpoint, run
     after each committed test case. [prng_state] as in {!take_snapshot}. *)
  let round_boundary ~prng_state =
    if !in_round >= config.round_length && !result = No_violation then begin
      stats.rounds <- stats.rounds + 1;
      Metrics.incr m_rounds;
      in_round := 0;
      if
        Coverage.should_grow coverage
          ~previous_combinations:!combos_at_round_start
          ~round_length:config.round_length
      then begin
        stats.growths <- stats.growths + 1;
        Metrics.incr m_growths;
        gen_cfg := Generator.grow !gen_cfg;
        n_inputs := grow_inputs !n_inputs;
        set_gen_gauges !gen_cfg ~n_inputs:!n_inputs;
        if Telemetry.enabled () then
          Telemetry.event "generator.grow"
            [
              ("n_insts", Json.Int !gen_cfg.Generator.n_insts);
              ("n_blocks", Json.Int !gen_cfg.Generator.n_blocks);
              ("max_mem_accesses", Json.Int !gen_cfg.Generator.max_mem_accesses);
            ]
      end;
      combos_at_round_start := Coverage.total_combinations coverage;
      Ucoverage.note_round ucov ~round:stats.rounds;
      sample_runtime ();
      if Telemetry.enabled () then
        Telemetry.event "fuzz.round"
          [
            ("round", Json.Int stats.rounds);
            ("combinations", Json.Int !combos_at_round_start);
          ]
    end;
    if
      checkpoint_every > 0
      && stats.test_cases mod checkpoint_every = 0
      && !result = No_violation
    then emit_checkpoint ~prng_state;
    (* Heartbeat and monitor service ride the same boundary. Neither
       draws from any PRNG nor touches campaign state, so outcomes are
       bit-identical with them on or off. *)
    if Telemetry.enabled () && stats.test_cases mod heartbeat_every = 0 then
      Telemetry.event "fuzz.heartbeat" (live_status ());
    (match monitor with Some m -> Monitor.poll m | None -> ());
    match on_progress with Some f -> f stats | None -> ()
  in
  (* The campaign loop. This domain owns the campaign PRNG: it generates
     test cases in order, up to [window] ahead of the commit point, and
     commits their outcomes strictly in generation order. At one domain
     the window is 1 and each test case is checked inline, on this
     domain's CPU, executor and arena, between its generation and its
     commit. With a pool, each check is a future on a pool domain with its
     own CPU/executor/arena (domain-local). The executor canonicalizes all
     carried state at the head of every measurement and noise/fault draws
     are keyed on the test-case number, so a test case's outcome is a pure
     function of the campaign seed and its index — the same on any domain,
     at any domain count. *)
  let window = if pool = None then 1 else exec_domains + 1 in
  let pending : tc_pending Queue.t = Queue.create () in
  (* Generation never crosses a round boundary: growth decisions depend
     on the round's committed coverage, so it stalls at the boundary
     until the round fully commits. *)
  let can_generate () =
    let ahead = Queue.length pending in
    !result = No_violation
    && ahead < window
    && (ahead = 0 || !in_round + ahead < config.round_length)
    && (not (should_stop ()))
    && stats.test_cases + ahead < budget
  in
  (* Scope this domain's telemetry context and fault schedule to test
     case [tc]. *)
  let enter_tc tc =
    if Telemetry.enabled () then Telemetry.set_context [ ("tc", Json.Int tc) ];
    Faultpoint.set_context ~salt:(Int64.of_int tc)
  in
  let check executor arena tc program inputs =
    Executor.set_context executor ~tc;
    classify (fun () -> check_test_case_full ~arena config executor program inputs)
  in
  let start_check =
    match pool with
    | None -> fun tc program inputs () -> check executor arena tc program inputs
    | Some ep ->
        let worker_state =
          Domain.DLS.new_key (fun () ->
              (Executor.create (Cpu.create config.uarch) config.executor,
               Arena.create ()))
        in
        fun tc program inputs ->
          let fut =
            Pool.spawn ep (fun () ->
                let wexec, warena = Domain.DLS.get worker_state in
                Faultpoint.set_context ~salt:(Int64.of_int tc);
                Fun.protect ~finally:Faultpoint.clear_context (fun () ->
                    check wexec warena tc program inputs))
          in
          fun () -> Pool.await ep fut
  in
  let generate_one () =
    let tc = stats.test_cases + Queue.length pending + 1 in
    enter_tc tc;
    let program, inputs =
      Probe.with_span sp_generate (fun () ->
          let program = Generator.generate prng !gen_cfg in
          let inputs =
            Input.generate_many prng ~entropy:config.entropy ~n:!n_inputs
          in
          (program, inputs))
    in
    Queue.add
      {
        p_tc = tc;
        p_prng = Prng.state prng;
        p_inputs = List.length inputs;
        p_outcome = start_check tc program inputs;
      }
      pending
  in
  (* PRNG state after the last committed test case's generation — what a
     final boundary snapshot must record. *)
  let last_prng = ref (Prng.state prng) in
  let commit_front () =
    let p = Queue.pop pending in
    let outcome = p.p_outcome () in
    (* With a pool, generating ahead (and helping with other checks while
       awaiting) has moved this domain's contexts past [p]; re-enter its
       own, so commit-time spans and fault draws (checkpoint writes) are
       keyed exactly as at one domain. *)
    if pool <> None then enter_tc p.p_tc;
    stats.test_cases <- p.p_tc;
    Metrics.incr m_test_cases;
    in_round := !in_round + 1;
    stats.inputs_tested <- stats.inputs_tested + p.p_inputs;
    Metrics.add m_inputs_tested p.p_inputs;
    last_prng := p.p_prng;
    commit_outcome outcome;
    round_boundary ~prng_state:p.p_prng
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Pool.shutdown pool;
      Faultpoint.clear_context ())
  @@ fun () ->
  (* One iteration fills the window and commits the oldest test case. Its
     wall time not covered by any stage span (input-list plumbing,
     stats/coverage bookkeeping, inter-stage GC) is attributed to the
     loop.other pseudo-stage, so at one domain the stage breakdown
     accounts for the loop's full wall time. With a pool, worker spans
     overlap this domain's wall time and the residual is a lower bound. *)
  let rec loop () =
    let iter_start = Revizor_obs.Clock.now_ns () in
    let stages_before = stages_total_ns () in
    while can_generate () do
      generate_one ()
    done;
    if !result = No_violation && not (Queue.is_empty pending) then begin
      commit_front ();
      let iter_ns = Revizor_obs.Clock.now_ns () - iter_start in
      let stage_ns = stages_total_ns () - stages_before in
      Probe.add_ns sp_loop_other (max 0 (iter_ns - stage_ns));
      loop ()
    end
  in
  loop ();
  (* A violation (or stop) can leave generated-ahead test cases in
     flight. They are discarded — never committed, never visible in stats
     or checkpoints — and the shutdown lets them finish before the
     campaign's closing events. *)
  Option.iter Pool.shutdown pool;
  (* A final boundary snapshot lets an interrupted (should_stop) campaign
     be resumed exactly where it left off. *)
  if !result = No_violation then emit_checkpoint ~prng_state:!last_prng;
  (campaign_state :=
     match !result with Violation _ -> "violation" | No_violation -> "done");
  sample_runtime ();
  (* One final poll so clients that asked during the last test case get
     their answer even if the campaign exits immediately after; the
     endpoint (and the provider closures, which only read captured
     state) stay valid for the caller's own post-campaign drain. *)
  (match monitor with Some m -> Monitor.poll m | None -> ());
  let own_s = Unix.gettimeofday () -. started in
  stats.elapsed_s <- base_elapsed +. own_s;
  (* This process's loop seconds, like the stage counters it divides;
     a resumed campaign's earlier segments count in [stats.elapsed_s]. *)
  Metrics.set_gauge g_elapsed (Metrics.gauge_value g_elapsed +. own_s);
  if Telemetry.enabled () then begin
    Telemetry.set_context [];
    Telemetry.event "fuzz.end"
      [
        ("test_cases", Json.Int stats.test_cases);
        ("elapsed_s", Json.Float stats.elapsed_s);
        ( "outcome",
          Json.String
            (match !result with Violation _ -> "violation" | No_violation -> "none")
        );
      ]
  end;
  (!result, stats)

let stats_to_json s =
  Json.Obj
    [
      ("test_cases", Json.Int s.test_cases);
      ("inputs_tested", Json.Int s.inputs_tested);
      ("effective_inputs", Json.Int s.effective_inputs);
      ("ineffective_test_cases", Json.Int s.ineffective_test_cases);
      ("faulted_test_cases", Json.Int s.faulted_test_cases);
      ("skipped_pathological", Json.Int s.skipped_pathological);
      ("candidates", Json.Int s.candidates);
      ("dismissed_by_swap", Json.Int s.dismissed_by_swap);
      ("dismissed_by_nesting", Json.Int s.dismissed_by_nesting);
      ("rounds", Json.Int s.rounds);
      ("growths", Json.Int s.growths);
      ("elapsed_s", Json.Float s.elapsed_s);
    ]

let stats_of_json j =
  let ( let* ) = Result.bind in
  (* Counters only ever grow from zero; missing ones other than
     [test_cases] read as zero, so the format can grow fields. *)
  let count v =
    let* n = Json.int v in
    if n >= 0 then Ok n else Error (Printf.sprintf "negative count %d" n)
  in
  let opt k = Result.map (Option.value ~default:0) (Json.field_opt k count j) in
  let* test_cases = Json.field "test_cases" count j in
  let* inputs_tested = opt "inputs_tested" in
  let* effective_inputs = opt "effective_inputs" in
  let* ineffective_test_cases = opt "ineffective_test_cases" in
  let* faulted_test_cases = opt "faulted_test_cases" in
  let* skipped_pathological = opt "skipped_pathological" in
  let* candidates = opt "candidates" in
  let* dismissed_by_swap = opt "dismissed_by_swap" in
  let* dismissed_by_nesting = opt "dismissed_by_nesting" in
  let* rounds = opt "rounds" in
  let* growths = opt "growths" in
  let* elapsed_s = Json.field_opt "elapsed_s" Json.float j in
  Ok
    {
      test_cases;
      inputs_tested;
      effective_inputs;
      ineffective_test_cases;
      faulted_test_cases;
      skipped_pathological;
      candidates;
      dismissed_by_swap;
      dismissed_by_nesting;
      rounds;
      growths;
      elapsed_s = Option.value elapsed_s ~default:0.;
    }

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>test cases: %d@,inputs: %d (effective: %d)@,ineffective test \
     cases: %d@,faulted: %d@,skipped (pathological): %d@,candidates: %d \
     (swap-dismissed: %d, nesting-dismissed: %d)@,rounds: %d (growths: \
     %d)@,elapsed: %.2fs@]"
    s.test_cases s.inputs_tested s.effective_inputs s.ineffective_test_cases
    s.faulted_test_cases s.skipped_pathological s.candidates
    s.dismissed_by_swap s.dismissed_by_nesting s.rounds s.growths s.elapsed_s
