(** Capped exponential backoff with deterministic seeded jitter.

    The shared retry policy of every site that re-attempts transient
    failures: {!Atomic_file.write}'s I/O retries and the fleet
    orchestrator's shard re-adoption schedule. The delay for attempt
    [k] is drawn uniformly from [0, min(cap_ms, base_ms * 2^k)] ("full
    jitter"); the draw is a pure function of [(key, attempt)], so retry
    schedules are reproducible under a seed. *)

type policy = { base_ms : float; cap_ms : float }

val default : policy
(** 1 ms base, 16 ms cap — sized for local filesystem retries. Fleet
    shard re-adoption uses its own, much coarser policy. *)

val delay_ms : policy -> key:int64 -> attempt:int -> float
(** Deterministic jittered delay, in milliseconds, for the given retry
    attempt (0-based). Monotone in expectation and capped at
    [policy.cap_ms]. *)

val sleep_ms : float -> unit
(** Sleep for the given delay; no-op for non-positive values. *)
