(** The stable 64-bit hashes behind configuration fingerprints, fault
    schedules and backoff jitter. Their values are persisted (checkpoint
    and ledger fingerprints) or replayed (fault and retry schedules), so
    they must never change. *)

val fnv1a : string -> int64
(** 64-bit FNV-1a: a digest of a canonical rendering, or a key derived
    from a stable name. No [Hashtbl.hash] involvement, so the value is
    the same in every run and build. *)

val splitmix64 : int64 -> int64
(** The splitmix64 finalizer: a bijective mixer with good avalanche, for
    draws addressed by a key rather than by a position in a stream. *)

val uniform : int64 -> float
(** A hash's 53 high bits as a float in \[0, 1). *)
