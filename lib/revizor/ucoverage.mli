open Revizor_uarch
module Json = Revizor_obs.Json

(** The microarchitectural coverage atlas: the campaign's second coverage
    dimension, next to {!Coverage}'s instruction-pattern coverage.

    Pattern coverage (§5.6 of the paper) is a black-box proxy — it counts
    the speculation {e opportunities} the generator put in front of the
    CPU. The atlas measures what the CPU under test {e actually did} with
    them: it harvests the speculation-event record the executor already
    collects during normal measurement and buckets it into a bounded
    feature space — speculation mechanism × origin-instruction pattern,
    log2-bucketed speculation-window lengths (transient loads that beat
    the squash), transient cache-set footprints, squash-cause
    transitions, and speculative burst depth — remembering for each
    feature the first test case that covered it.

    Every campaign collects its atlas. Collection is pure bookkeeping
    over data the measurement produced anyway: no extra simulation runs,
    and nothing feeds back into generation or detection, so fuzzing
    outcomes do not depend on the atlas (and are the same for any
    [--executor-domains] count — the harvest is a pure function of the
    measurement). *)

val schema : string
(** ["revizor.ucoverage.v1"]. *)

val enabled : unit -> bool
(** Always [true]: every campaign collects its atlas. Kept only because
    the benchmark's traced replay calls it; it goes when that replay
    does. *)

(** {1 Feature space} *)

(** Pattern class of the instruction that triggered a speculation
    episode, classified from the compiled program's descriptors. *)
type origin =
  | O_cond_branch
  | O_ret
  | O_ind_jump
  | O_call
  | O_store  (** a store's address resolving late (store bypass) *)
  | O_load  (** an assisted load *)
  | O_other

type feature =
  | Kind_origin of Cpu.speculation_kind * origin
  | Window of Cpu.speculation_kind * int
      (** log2 bucket ({!Revizor_obs.Metrics.bucket_of}) of the episode's
          transient-load count — how much work beat the squash *)
  | Footprint of Cpu.speculation_kind * int
      (** log2 bucket of the number of cache sets touched transiently *)
  | Transition of Cpu.speculation_kind * Cpu.speculation_kind
      (** consecutive episodes within one run: squash-cause transitions *)
  | Depth of int
      (** log2 bucket of episodes per run — the speculative burst depth.
          The simulated CPU never nests transient episodes, so this
          counts the burst, not a nesting level. *)

val feature_to_string : feature -> string
(** Stable textual form, e.g. ["window:store-bypass:2"] or
    ["transition:branch-mispredict>return-mispredict"] — the JSON key and
    the CSV/diff identifier. *)

val feature_of_string : string -> feature option
(** Inverse of {!feature_to_string}. *)

(** {1 Harvesting} *)

val features_of_measurements :
  descs:Revizor_emu.Compiled.desc array ->
  Executor.measurement array ->
  feature list
(** Sorted distinct features across every measured repetition of every
    input of one test case. Pure — safe to compute on worker domains. *)

(** {1 Accumulator} *)

type t

val create : unit -> t
val copy : t -> t

val assign : t -> from:t -> unit
(** Overwrite [t]'s contents with [from]'s (checkpoint resume into a
    caller-owned atlas). *)

val register : t -> tc:int -> feature list -> unit
(** Fold one test case's features into the atlas. First-covered features
    record [tc] as their first hit, advance the frontier curve, update
    the [ucov.*] metrics and emit a [coverage.frontier] telemetry event
    each. *)

val note_round : t -> round:int -> unit
(** Round-boundary saturation analytics: after 3 consecutive rounds that
    covered nothing new, emit one [coverage.saturation] telemetry event
    (re-armed by the next frontier advance). *)

(** {1 Queries} *)

val distinct : t -> int
(** Number of distinct features covered. *)

val first_hits : t -> (feature * int) list
(** Every covered feature with the test case that first covered it, in
    deterministic feature order. *)

val frontier : t -> (int * int) list
(** The saturation curve: [(tc, cumulative distinct features)] at every
    test case that covered something new, ascending — monotone in both
    components by construction. *)

val kind_first_hit : t -> Cpu.speculation_kind -> int option

val rate_per_1k : t -> test_cases:int -> float
(** Distinct features per thousand test cases (0 if [test_cases <= 0]). *)

val equal : t -> t -> bool
(** Bit-identity of coverage content (first hits and frontier curve) —
    what the determinism and resume tests compare. *)

val diff : t -> t -> feature list * feature list
(** [(only_in_a, only_in_b)]: the differential view across two campaigns
    (e.g. which mechanisms a patched target never exercises). *)

val merge : t -> t -> t
(** Atlas union for the fleet's central corpus merge: per-feature first
    hits take the minimum test-case index, making the operation
    commutative, associative and idempotent — folding shard atlases in
    any completion order (or re-committing one after a crash) yields
    the same merged atlas. The merged atlas carries no saturation-curve
    state (frontier empty, round counters zeroed): that timeline
    belongs to individual campaigns, not their union. *)

(** {1 Serialization} *)

val to_json : t -> Json.t
(** The versioned ["revizor.ucoverage.v1"] document embedded in
    checkpoints, [stats.json] and [forensics.json]. *)

val of_json : Json.t -> (t, string) result
(** Exact inverse of {!to_json} (round-trips bit-identically). Refuses
    states no campaign reaches: a negative first hit, frontier point or
    round counter, and a frontier that is not strictly increasing in
    both coordinates. *)

val summary_fields : t -> test_cases:int -> (string * Json.t) list
(** Compact totals for the monitor's [coverage] reply: distinct
    features, features per 1k test cases, per-mechanism counts and first
    hits, saturation state. *)

(** {1 Rendering} *)

val render_kind_table : t -> string
(** Per-mechanism table (features covered, first-hit test case) — shared
    by [revizor coverage report] and the forensics report. *)

val render_report : ?test_cases:int -> t -> string
(** The full [revizor coverage report] body: totals, per-mechanism
    table, per-bucket feature listings with first hits, and the
    saturation curve. *)
