(** Crash-safe file writes: temp file + atomic rename, with bounded
    retry on transient I/O errors.

    Every durable write (saved violations, [stats.json],
    [forensics.json], campaign checkpoints, the fleet's ledger, shard
    results and merged corpus) goes through {!write}, so a kill at any
    instant leaves either the previous file or the complete new one —
    never a torn write. The file is flushed and renamed, not fsynced: it
    survives a process kill, not a power loss. {!write} is the one retry
    loop for these writes. The [writer.io] fault point (and a caller's
    own point) is checked on every attempt; injected failures are
    retried like real ones and surface as [obs.atomic_write_retries]
    plus a [writer.retry] telemetry event. *)

val write : ?fault:Faultpoint.point -> string -> string -> unit
(** [write path contents] atomically replaces [path], creating its
    directory first if it is missing ({!Dir.ensure_parent}). Each
    attempt fires [fault] (when given), then [writer.io]. Retries up to
    3 times on [Sys_error] or an injected fault — sleeping a
    {!Backoff.default} delay (capped exponential, deterministic jitter
    keyed on [path]) between attempts — then re-raises the last
    exception: 4 attempts in all. *)
