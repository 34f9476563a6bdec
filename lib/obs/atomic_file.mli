(** Crash-safe file writes: temp file + atomic rename, with bounded
    retry on transient I/O errors.

    All result artifacts (saved violations, [stats.json],
    [forensics.json], campaign checkpoints) go through {!write}, so a kill
    at any instant leaves either the previous file or the complete new
    one — never a torn write. The [writer.io] fault point is checked on
    every attempt; injected failures are retried like real ones and
    surface as [obs.atomic_write_retries] plus a [writer.retry] telemetry
    event. *)

val write : ?retries:int -> ?backoff:Backoff.policy -> string -> string -> unit
(** [write path contents] atomically replaces [path], creating its
    directory first if it is missing ({!Dir.ensure_parent}). Retries up to
    [retries] (default 3) times on [Sys_error] or an injected writer
    fault — sleeping a {!Backoff} delay (capped exponential,
    deterministic jitter keyed on [path]; default {!Backoff.default})
    between attempts — then re-raises the last exception. *)
