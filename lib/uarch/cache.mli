(** Set-associative L1D cache model with LRU replacement.

    Lines are identified by their tag (address divided by line size). The
    attacker's priming lines use reserved negative tags so that
    Prime+Probe can be simulated exactly: priming fills every way of every
    set with attacker lines; any victim access evicts one, and the probe
    step detects the eviction. *)

type t

val create : ?sets:int -> ?ways:int -> unit -> t
(** Defaults: {!Layout.l1d_sets} × {!Layout.l1d_ways}.
    @raise Invalid_argument naming [sets] unless it is a positive power
    of two (a line's set is its low bits), or naming [ways] unless it is
    positive. *)

val sets : t -> int

val touch : t -> int64 -> [ `Hit | `Miss ]
(** Access the line containing the address: update LRU, fill on miss. *)

val contains : t -> int64 -> bool
(** Whether the line of this address is currently cached (no LRU update). *)

(** {2 One lookup per access}

    The simulator's per-access path, on addresses as native ints (an
    [int64] passed to a call that is not inlined is boxed): look the line
    up once, then touch it by the way found. *)

val set_of : t -> int -> int
(** The set of the line holding the address. *)

val find : t -> set:int -> int -> int
(** [find t ~set a], with [set = set_of t a], is the way of [set] that
    holds [a]'s line, or -1: {!contains} is [find ... >= 0]. *)

val touch_found : t -> set:int -> int -> way:int -> unit
(** [touch_found t ~set a ~way] is {!touch} of [a] for [way = find t ~set
    a], found with no cache operation since. *)

val flush_line : t -> int64 -> unit
(** CLFLUSH-like invalidation of one line. *)

val flush_all : t -> unit

val prime : t -> unit
(** Fill every way of every set with attacker lines (Prime phase). *)

val probe : t -> int -> bool
(** [probe t set] is [true] iff at least one attacker line was evicted from
    the set since the last {!prime} (Probe phase). Probing re-primes the
    inspected set, as the real attack's probe loop does. *)

val probe_evicted : t -> (int -> unit) -> unit
(** Probe phase over the whole cache: calls the callback once for every
    set from which at least one attacker line was evicted since the last
    {!prime}, and re-primes every such set. Equivalent to {!probe} on
    each set in turn, but after a full prime only the sets actually
    touched since are physically inspected (the rest are still in their
    canonical primed state and would probe [false]). Callback order is
    unspecified. *)

val copy : t -> t
