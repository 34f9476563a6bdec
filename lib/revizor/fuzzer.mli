open Revizor_uarch

(** The end-to-end MRT loop (Fig. 2): generate → model → execute →
    analyze, round by round, with diversity-guided growth of the
    generator configuration (§5.6) and the two false-positive filters —
    the priming swap check (§5.3) and the nesting re-check (§5.4). *)

(** Which execution engine runs the test programs. [Compiled] (the
    default) decodes each test case once into per-instruction descriptors
    and closure-compiled semantic actions, shared by the contract model
    and the CPU simulator; [Interpreted] routes every step through
    {!Revizor_emu.Semantics.step}. The two are bit-identical — fuzzer
    outcomes, traces and statistics do not depend on the choice (the
    differential test suite asserts this); [Interpreted] exists as the
    reference and to rule the compiler out of a surprising result. *)
type engine = Compiled | Interpreted

type config = {
  contract : Contract.t;
  uarch : Uarch_config.t;
  executor : Executor.config;
  gen_cfg : Generator.cfg;
  n_inputs : int;  (** inputs per test case (grows with the rounds) *)
  entropy : int;  (** PRNG entropy bits for input generation *)
  round_length : int;  (** test cases per round *)
  seed : int64;
  executor_domains : int;
      (** size of the campaign's domain pool, the only parallelism
          setting: when [> 1], the calling domain generates test cases in
          order, keeping up to [executor_domains + 1] in flight, while
          the pool's domains check them (compile, materialize,
          model, execute, analyze) on their own replicated
          CPU/executor/arena. Noise and fault-injection draws are keyed
          on the test-case index and the executor canonicalizes all
          carried state per measurement, so outcomes, traces, stats and
          checkpoints are bit-identical for every value, including 1 (the
          default), where each test case is checked inline between its
          generation and its commit. *)
  engine : engine;
  watchdog : Watchdog.t;
      (** per-test-case step budget for the model stage; the default
          ceiling is far above any legitimate trace, so default results
          are unchanged (see {!Watchdog.default}) *)
}

val compile_with : engine -> Revizor_isa.Program.flat -> Revizor_emu.Compiled.t
(** Compile a flat program with the given engine (what
    {!check_test_case} does internally, for callers that drive
    {!Model} / {!Executor} directly). *)

val sample_runtime : unit -> unit
(** Set the runtime-health gauges ([gc.minor_collections],
    [gc.major_collections], [gc.compactions], [gc.heap_words],
    [gc.minor_words], [runtime.domain_count]) from the runtime now. The
    fuzz loop samples them at campaign start, at every round boundary
    and at the end. [gc.minor_words] is the sampling domain's
    {!Gc.minor_words}, exact to the word. *)

val default_config :
  ?seed:int64 ->
  Contract.t ->
  Uarch_config.t ->
  Executor.config ->
  config
(** Paper's starting point: 8 instructions / 2 blocks / 2 memory accesses,
    2 entropy bits, 50 inputs, rounds of 25 test cases, one domain
    ([executor_domains = 1]). *)

type stats = {
  mutable test_cases : int;
  mutable inputs_tested : int;
  mutable effective_inputs : int;
  mutable ineffective_test_cases : int;  (** no multi-input class *)
  mutable faulted_test_cases : int;
  mutable skipped_pathological : int;
      (** test cases abandoned by the {!Watchdog} budgets *)
  mutable candidates : int;  (** trace divergences before filtering *)
  mutable dismissed_by_swap : int;
  mutable dismissed_by_nesting : int;
  mutable rounds : int;
  mutable growths : int;  (** generator reconfigurations *)
  mutable elapsed_s : float;
}

val fresh_stats : unit -> stats
(** All counters zero. *)

type outcome = Violation of Violation.t | No_violation

type budget = Test_cases of int
(** A campaign is bounded by its count of test cases, so its outcome and
    statistics are a function of its configuration (a resumed campaign
    stops where the uninterrupted one does). *)

val grown_inputs_cap : int
(** 400: generator growth raises the inputs per test case by half, up to
    this many (and lowers a larger configured count to it). *)

val grow_inputs : int -> int
(** One growth step of the inputs per test case, capped at
    {!grown_inputs_cap}. *)

type snapshot = {
  sn_prng : int64;  (** main campaign PRNG state *)
  sn_gen_cfg : Generator.cfg;
  sn_n_inputs : int;
      (** starts at the config's [n_inputs]; each growth moves it toward
          {!grown_inputs_cap}, never past it *)
  sn_in_round : int;
  sn_combos_at_round_start : int;
  sn_stats : stats;
  sn_coverage : Coverage.t;
  sn_ucoverage : Ucoverage.t;
      (** the microarchitectural coverage atlas, so a resumed campaign's
          atlas (first hits, frontier curve, saturation counters) is
          bit-identical to the uninterrupted run's *)
}
(** The campaign loop's complete mutable state at a test-case boundary.
    Resuming from a snapshot continues the interrupted run bit for bit —
    same violations, same statistics — except [sn_stats.elapsed_s], which
    accumulates wall time across segments. Serialization, config
    fingerprinting and file handling live in {!Campaign}. *)

val fuzz :
  ?on_progress:(stats -> unit) ->
  ?should_stop:(unit -> bool) ->
  ?resume:snapshot ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(snapshot -> unit) ->
  ?monitor:Revizor_obs.Monitor.t ->
  ?ucoverage:Ucoverage.t ->
  config ->
  budget:budget ->
  outcome * stats
(** Run until a (filtered) violation is found or the budget is exhausted.
    Deterministic for a given [config.seed]. [should_stop] is polled
    between test cases (graceful shutdown by the CLI).

    [resume] restarts the loop from a snapshot (the budget still counts
    total test cases, so a resumed [Test_cases n] campaign stops at the
    same point as the uninterrupted one). [on_checkpoint] is called with
    a fresh snapshot every [checkpoint_every] test cases (0, the default,
    disables periodic checkpoints) and once more when the loop exits
    without a violation — so an interrupted campaign always has a
    boundary snapshot to resume from.

    [monitor] attaches a live {!Revizor_obs.Monitor} endpoint: the loop
    installs [status]/[health]/[coverage] provider closures over its
    campaign state (round, throughput, coverage, watchdog trips,
    checkpoint age) and calls {!Revizor_obs.Monitor.poll} at every
    test-case boundary. While telemetry is enabled the loop also emits a
    [fuzz.heartbeat] event every 50 committed test cases, carrying the
    same live status fields as the [status] reply (test cases, rounds,
    inputs, coverage, throughput, generator shape, inputs per test case,
    elapsed seconds, atlas totals). Neither feature draws from any PRNG
    or writes campaign state, so fuzzing outcomes are bit-identical with
    them on or off (asserted by the observatory test suite). The monitor
    stays open when [fuzz] returns: the caller may keep polling it
    (draining late clients) and is responsible for
    {!Revizor_obs.Monitor.close}.

    [ucoverage] supplies a caller-owned {!Ucoverage} atlas for the
    campaign to accumulate into (so the caller can save or render it
    afterwards); omitted, the loop keeps a private one. Every campaign
    collects its atlas. The atlas feeds nothing back into generation or
    detection, so a campaign's outcome, traces and stats do not depend on
    the atlas it starts from. On [resume] the snapshot's atlas contents
    overwrite the supplied one. *)

val check_test_case :
  config ->
  Executor.t ->
  Revizor_isa.Program.t ->
  Input.t list ->
  (Violation.t option, string) result
(** The per-test-case pipeline on its own (used by the postprocessor, the
    gadget experiments of Table 5, and the tests). [Error] means the test
    case faulted architecturally. *)

val classes_of : Model.result list -> Analyzer.input_class list
(** The inputs partitioned by contract trace
    ({!Analyzer.input_classes} over the results' ctraces, in order), the
    way the campaign's analyze stage and nesting re-check build them. *)

val pp_stats : Format.formatter -> stats -> unit

val stats_to_json : stats -> Revizor_obs.Json.t
(** Flat object keyed by field name, as stored in [stats.json] by
    {!Results.save_violation}. *)

val stats_of_json : Revizor_obs.Json.t -> (stats, string) result
(** Inverse of {!stats_to_json}. Missing fields other than [test_cases]
    default to zero, so the format can grow fields; a negative counter is
    an error. *)
