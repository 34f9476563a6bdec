(** The fleet orchestrator: a single-domain control loop that hands
    shards to forked worker processes under time-bounded leases, probes
    their liveness over their monitor sockets, revokes and re-adopts
    crashed/hung shards from their checkpoints, and folds finished
    shards into the central merge document (DESIGN.md §9).

    Also serves a pollable {!Revizor_obs.Monitor} status endpoint on the
    fleet directory's [fleet.sock] ([status], [shards], [health],
    [metrics], [prom]). *)

type outcome =
  | Completed  (** every shard [Done] or [Quarantined] *)
  | Interrupted  (** [should_stop] fired; leases revoked cleanly *)

val run :
  dir:string ->
  ?log:(string -> unit) ->
  ?should_stop:(unit -> bool) ->
  Ledger.spec ->
  (outcome, string) result
(** Run a fleet campaign in [dir] (created if needed). An existing
    ledger with the same spec fingerprint resumes it; a different
    fingerprint is refused. Blocks until completion or [should_stop].
    A ledger write that still fails after {!Revizor_obs.Atomic_file.write}'s
    retries ends the run: every leased worker is killed and reaped, and
    the result is an [Error] naming the ledger file and the cause. *)

val resume :
  dir:string ->
  ?log:(string -> unit) ->
  ?should_stop:(unit -> bool) ->
  unit ->
  (outcome, string) result
(** Reconstruct fleet state from the ledger and shard checkpoints alone
    (after orchestrator death, even by SIGKILL): stale leaseholders are
    killed best-effort, their finished results committed, unfinished
    shards revoked back to [Pending] with no attempt escalation, and
    the control loop re-entered. The resumed campaign's merged output
    is byte-identical to an uninterrupted run's. A failing ledger write
    ends it as it ends {!run}. *)

val reference :
  dir:string -> ?log:(string -> unit) -> Ledger.spec -> (unit, string) result
(** In-process sequential reference: the same shards through the same
    merge code with no forking and no fault points armed — the
    byte-identity baseline chaos runs are diffed against. A shard
    result, merged document or ledger that cannot be written is an
    [Error] naming the file. *)
