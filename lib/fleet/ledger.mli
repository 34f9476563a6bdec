(** The lease-based shard ledger — the fleet's single durable source of
    truth (DESIGN.md §9).

    A campaign spec is sharded into one descriptor per seed; shards move

    {v Pending -> Leased -> Done
         ^          |
         +- backoff + (crash/hang) ... attempts >= max -> Quarantined v}

    and every transition is persisted as one atomic tmp+rename write of
    the whole [revizor.ledger.v1] document. Ledger + per-shard
    checkpoints alone reconstruct fleet state after orchestrator death;
    shard computation resumes from checkpoints bit-for-bit, so the
    resumed fleet's merged results are identical to an uninterrupted
    run's. *)

type spec = {
  sp_target : string;  (** {!Revizor.Target.find} key, e.g. ["Target 5"] *)
  sp_contract : string;  (** {!Revizor.Contract.of_name} key *)
  sp_seeds : int64 list;  (** one shard per campaign seed *)
  sp_budget : int;  (** test cases per shard *)
  sp_n_inputs : int;
  sp_checkpoint_every : int;
  sp_workers : int;
  sp_lease_s : float;  (** lease length; heartbeats renew it *)
  sp_max_attempts : int;  (** failed adoptions before quarantine *)
  sp_fleet_seed : int64;  (** jitter key for the re-adoption backoff *)
  sp_backoff : Revizor_obs.Backoff.policy;
}

val default_spec :
  target:string -> contract:string -> seeds:int64 list -> spec

val fingerprint : spec -> string
(** Digest of the result-shaping fields only (target, contract, seeds,
    budget, inputs): orchestration knobs may change between a run and
    its resume without affecting any merged byte. *)

type state =
  | Pending
  | Leased of { pid : int; expires : float; attempt : int }
  | Done
  | Quarantined

type shard = {
  sh_id : int;
  sh_seed : int64;
  mutable sh_state : state;
  mutable sh_attempts : int;
  mutable sh_not_before : float;
      (** absolute wall-clock gate for re-adoption (capped backoff) *)
}

type t = { dir : string; spec : spec; shards : shard array }

val create : dir:string -> spec -> t
(** Fresh ledger: every shard [Pending]. Nothing is written until
    {!save}. *)

(** {1 Canonical fleet paths} *)

val ledger_path : string -> string
val merged_path : string -> string
val fleet_sock : string -> string
val shard_checkpoint : string -> int -> string
val shard_result : string -> int -> string
val shard_sock : string -> int -> string

(** {1 Transitions} *)

val lease : shard -> pid:int -> now:float -> lease_s:float -> unit
val renew : shard -> now:float -> lease_s:float -> unit
val mark_done : shard -> unit

val mark_failed : t -> shard -> now:float -> unit
(** One failed adoption: increment the attempt count, gate re-adoption
    behind a deterministic capped-backoff delay, and quarantine once
    [sp_max_attempts] is reached. *)

val mark_revoked : shard -> unit
(** Lease revocation that is not the shard's fault (the orchestrator
    died): back to [Pending] with no attempt escalation. *)

val backoff_delay_s : spec -> shard_id:int -> attempt:int -> float
(** The deterministic jittered re-adoption delay (pure function of
    fleet seed, shard id and attempt). *)

val counts : t -> int * int * int * int
(** [(pending, leased, done, quarantined)]. *)

val finished : t -> bool
(** Every shard [Done] or [Quarantined]. *)

(** {1 Persistence} *)

val save : t -> unit
(** Atomic whole-ledger write ({!Revizor_obs.Atomic_file.write}, four
    attempts); the [fleet.ledger_write] fault point fires per attempt.
    Raises when every attempt failed. *)

val load : dir:string -> (t, string) result
val exists : dir:string -> bool
val to_json : t -> Revizor_obs.Json.t
val of_json : dir:string -> Revizor_obs.Json.t -> (t, string) result
