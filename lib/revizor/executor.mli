open Revizor_uarch

(** The executor (§5.3): collects hardware traces from the CPU under test.

    Responsibilities, mirroring the paper:
    - run the whole input sequence back-to-back on one CPU session so that
      each input primes the microarchitectural context of the next
      ({e priming});
    - repeat the measurement after one priming pass, discard
      observations seen in too few repetitions (noise outliers) and take
      the union of the rest;
    - on demand, re-measure with a pair of inputs swapped in the sequence
      to tell real leaks from priming artifacts (the swap check);
    - optionally inject synthetic measurement noise, so the
      noise-filtering machinery can be exercised deterministically. *)

(** Synthetic measurement noise. Perturbation decisions are drawn from
    splitmix64 streams derived from [seed] and the measurement's
    coordinates — (test case, measurement epoch, sequence pass, input
    index) — not from one sequential PRNG. A draw is addressed by where
    it happens rather than by how many draws preceded it, so noisy
    campaigns are bit-identical for any [executor_domains] count and need
    no PRNG state in checkpoints. *)
type noise = {
  flip_probability : float;  (** chance to add/remove one observation *)
  seed : int64;  (** key of the derived per-measurement noise streams *)
}

type config = {
  threat : Attack.threat;
  measurement_reps : int;  (** recorded passes (the paper uses 50) *)
  outlier_min : int;
      (** keep an observation only if seen in at least this many reps;
          with fewer than 3 reps every observation is kept *)
  noise : noise option;
  max_steps : int;
  reset_between_inputs : bool;
      (** ablation switch: wipe the microarchitectural state before every
          input, disabling priming (default [false]) *)
}

val default_config : ?threat:Attack.threat -> unit -> config
(** Prime+Probe, 3 reps, outlier threshold 2, no noise. *)

type t

val create : Cpu.t -> config -> t
val config : t -> config

val set_context : t -> tc:int -> unit
(** Tell the executor which test case it is measuring. The test-case
    number seeds the coordinates of the keyed noise streams (see
    {!noise}) and resets the per-test-case measurement-epoch counter, so
    a test case's measurements are a pure function of the campaign
    configuration and its own number — wherever and on whatever domain
    they run. The fuzz loop calls this once per test case; standalone
    callers that never call it get a fixed test-case number 0, which is
    just as deterministic. *)

val set_memo : bool -> unit
(** Master switch (default on) for measurement memoization: within one
    {!measure}, a run of an input that starts from the same contents of
    the program's predictor footprint ({!Cpu.footprint}) as an earlier
    run of that input is replayed — its recorded trace and events
    returned, its recorded post-run footprint installed — instead of
    simulated (see DESIGN.md §6). Memoized and non-memoized measurements
    are identical by construction; the switch exists so differential
    tests can assert exactly that. Process-global because fuzzing
    campaigns build their executors internally. *)

(** Per-input measurement result. *)
type measurement = {
  htrace : Htrace.t;  (** union across reps, outliers removed *)
  kinds : Cpu.speculation_kind list;
      (** speculation mechanisms that produced transient cache touches for
          this input (for post-hoc labelling only) *)
  events : (Cpu.speculation_kind * Htrace.t) list;
      (** the same mechanisms with the cache sets they touched, so that a
          violation can be attributed to the mechanism responsible for the
          diverging observations *)
  runs : Cpu.event list list;
      (** the raw per-repetition speculation record: one entry per
          measured repetition (most recent first), each the complete
          {!Cpu.event} list of that run in execution order. This is what
          the executor already collects to compute [kinds]/[events]; it
          is surfaced whole so the coverage atlas can harvest event
          features (window lengths, squash transitions, footprints) and
          the flight recorder can read the first repetition's timeline
          without any extra simulation runs. *)
}

val measure :
  ?templates:Revizor_emu.State.t array ->
  t ->
  Revizor_emu.Compiled.t ->
  Input.t list ->
  measurement array
(** Reset the CPU session, run one priming pass over the inputs, then
    the measured reps. The result is indexed like the input list.

    [templates] (from {!Input.templates}, indexed like the input list)
    lets the caller materialize each input's architectural state once per
    test case; the priming pass and every repetition then run on the
    template itself and undoes the run ({!Revizor_emu.State.save}/
    {!Revizor_emu.State.undo}) instead of regenerating the input's PRNG
    stream. Every template comes back exactly as it went in, also when
    the run raises. Omitted, the templates are built internally (one
    state per input per call). The same holds for {!htraces} and
    {!swap_check}. *)

val htraces_of : measurement array -> Htrace.t array
(** The measurements' hardware traces, in order. *)

val release : measurement array -> unit
(** Overwrite every slot with a static empty measurement. A result array
    of more than 256 inputs lives in the major heap, where each young
    measurement in it stays reachable from the remembered set until the
    next minor collection, even once the array is garbage: releasing it
    when the check is done with it keeps that collection from promoting
    the measurements. *)

val htraces :
  ?templates:Revizor_emu.State.t array ->
  t ->
  Revizor_emu.Compiled.t ->
  Input.t list ->
  Htrace.t array
(** {!htraces_of} a {!measure}ment, which is then {!release}d. *)

val swap_check :
  ?templates:Revizor_emu.State.t array ->
  ?base:Htrace.t array ->
  t ->
  Revizor_emu.Compiled.t ->
  Input.t list ->
  int ->
  int ->
  bool
(** [swap_check t prog inputs a b] re-measures with inputs [a] and [b]
    exchanged in the priming sequence. Returns [true] if the trace
    divergence persists under the swapped contexts (a genuine violation),
    [false] if it was a priming artifact.

    [base] is the unswapped baseline measurement, if the caller already
    has it (from {!measure} over the same [templates]); re-measuring
    would reproduce it bit for bit — keyed noise included — so it is
    always reused. *)
