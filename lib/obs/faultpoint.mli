(** Deterministic, seeded fault injection (DESIGN.md §8 "Robustness").

    Named fault points are threaded into the pipeline's failure-prone
    sites (model stage, executor measurement loop, artifact writers,
    fleet workers). Arming them with {!enable} makes each point fail on a
    schedule that is a pure function of (fault seed, point name, hit
    index) — reproducible under a seed, independent of domain
    interleaving across points.

    Disabled (the default), a hit is one atomic load and no allocation,
    the same zero-cost discipline as {!Telemetry}. *)

exception Injected of string
(** Raised by {!fire} when the point's schedule says to fail; the payload
    is the point name. *)

type cfg = {
  rate : float;  (** firing probability per hit, in [0,1] *)
  after : int;  (** skip the first [after] hits *)
  max_fires : int;  (** stop after this many fires; 0 = unlimited *)
}

type point

val point : string -> point
(** Register (or look up) the fault point with this name. Points register
    a [fault.<name>.fired] metrics counter. *)

val enable : seed:int64 -> (string * cfg) list -> unit
(** Arm the named points and reset all hit/fire counts. Points not in the
    list stay disarmed; points registered later are armed on creation. *)

val disable : unit -> unit
val enabled : unit -> bool

val set_context : salt:int64 -> unit
(** Open a schedule context on the calling domain (domain-local). Until
    {!clear_context}, every point's hit index is counted within this
    context and [salt] is mixed into the draw, making the schedule a
    pure function of (fault seed, salt, point name, context-local hit
    index) — independent of what other domains or earlier contexts did.
    The fuzz loop opens one context per test case, salted with the test
    case number, so fault schedules are bit-identical for any executor
    domain count. [cfg.after] then counts per context; [cfg.max_fires]
    still caps fires globally (a cross-context property by design).
    Without a context, scheduling is exactly the historical global-
    counter behavior. *)

val clear_context : unit -> unit

val should_fire : point -> bool
(** Count one hit; [true] if the schedule fires. *)

val fire : point -> unit
(** Count one hit; raise {!Injected} if the schedule fires. *)

val fire_value : point -> int64 option
(** Count one hit; [Some bits] if the schedule fires, where [bits] is the
    hit's own deterministic hash — for points that perturb data (e.g.
    synthetic noise storms) rather than raise. *)

val fired : point -> int
val hits : point -> int

val parse_spec : string -> ((string * cfg) list, string) result
(** Parse a CLI spec: comma-separated [name:rate], with optional
    [@after] (skip the first N hits) and [#max] (cap the fire count),
    e.g. ["model.ctrace:0.05,writer.io:1.0@10#2"]. *)
