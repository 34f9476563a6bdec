(** Hardware traces: the set of side-channel observations (cache sets or
    cache lines, depending on the measurement mode) left by one execution
    of a test case with one input.

    Traces are sets rather than sequences because the executor probes the
    final cache state once, after the execution (§7 "Granularity of
    measurements"). The analyzer compares them with the subset relation
    (§5.5).

    Representation: a fixed-width 128-bit bitset (immutable native-int
    words), sized to the largest {!Attack.trace_domain} (128
    Flush/Evict+Reload lines; Prime+Probe and port-contention use 64).
    Set algebra is a handful of machine logical ops — this is the hottest
    data structure of the whole pipeline. Observations must lie in
    [0, 128): {!singleton}, {!add} and {!of_list} raise [Invalid_argument]
    otherwise. *)

type t

val width : int
(** Bitset capacity (128). Valid observations are [0 .. width - 1]. *)

val empty : t
val singleton : int -> t
val of_list : int list -> t
val add : int -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val is_empty : t -> bool
val cardinal : t -> int
val elements : t -> int list

val nth : t -> int -> int
(** [nth t k] is the k-th smallest element (0-based) — equal to
    [List.nth (elements t) k] without building the list.
    @raise Invalid_argument unless [0 <= k < cardinal t]. *)

val mem : int -> t -> bool
val diff : t -> t -> t

val iter : (int -> unit) -> t -> unit
(** Apply to each element in increasing order (no intermediate list). *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val comparable : t -> t -> bool
(** [comparable a b] iff [subset a b || subset b a]: the analyzer's
    equivalence heuristic for union-of-contexts traces. *)

val pp : Format.formatter -> t -> unit
(** Bit-string rendering over 64 positions, as in §5.3's example. *)

(** Occurrence thresholds over a stream of traces per slot, the
    executor's outlier filter: which observations appeared in at least
    [threshold] of the traces a slot was given. Kept as threshold planes
    (plane j holds the observations seen at least j times), so adding a
    trace costs 3 × [threshold] word operations and allocates nothing,
    whatever the trace domain. *)
module Planes : sig
  type trace := t
  type t

  val create : unit -> t

  val reset : t -> slots:int -> threshold:int -> domain:int -> unit
  (** Forget every trace added so far and count afresh for slots
      [\[0, slots)] against [threshold], over the observations
      [\[0, domain)]. Storage grows to [slots × threshold] planes and is
      reused. *)

  val add : t -> int -> trace -> unit
  (** [add p slot h] counts one more trace for [slot]. Its observations
      must lie in the [domain] given to {!reset}. *)

  val result : t -> int -> trace
  (** The observations seen in at least [threshold] of the traces added
      to [slot] since {!reset}: every observation of [\[0, domain)] when
      [threshold <= 0], none when fewer than [threshold] traces were
      added. *)
end
