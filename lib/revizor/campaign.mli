(** Campaign checkpointing (DESIGN.md §8): serialize a {!Fuzzer.snapshot}
    to a versioned JSON file and restore it, so an interrupted fuzzing
    campaign resumes bit-identically — same violations, same statistics
    (wall time excepted) — as the uninterrupted run.

    A checkpoint embeds a fingerprint of the configuration it was taken
    under; {!load} rejects checkpoints whose fingerprint does not match
    the current configuration, because resuming a PRNG mid-stream under
    different parameters would silently produce a run that corresponds to
    no seed at all. [executor_domains] is excluded from the fingerprint:
    results are pool-size-independent, so a checkpoint may be resumed
    with a different [--executor-domains]. *)

val schema : string
(** ["revizor.checkpoint.v1"]. *)

val version : int

val fingerprint : Fuzzer.config -> string
(** 16-hex-digit FNV-1a digest of the canonical configuration
    rendering. *)

val to_json : Fuzzer.config -> Fuzzer.snapshot -> Revizor_obs.Json.t
val of_json :
  Fuzzer.config -> Revizor_obs.Json.t -> (Fuzzer.snapshot, string) result
(** Fails on schema/version/fingerprint mismatch, missing or malformed
    fields, and loop state the campaign cannot reach (counters that do
    not follow from each other, see DESIGN.md §8). Errors start with
    ["checkpoint: "]. *)

val save : path:string -> Fuzzer.config -> Fuzzer.snapshot -> unit
(** Atomic publication (write-tmp-then-rename via
    {!Revizor_obs.Atomic_file}): a crash mid-write leaves the previous
    checkpoint intact, never a torn file. *)

val load : path:string -> Fuzzer.config -> (Fuzzer.snapshot, string) result
