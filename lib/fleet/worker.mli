(** One shard's campaign: the existing fuzz loop under the fleet's
    per-shard checkpoint, result and monitor-socket files.

    The same {!run_shard} body serves the forked worker process
    ({!child_main}), re-adoption after a crash (same call, higher
    [attempt] — the on-disk checkpoint makes it continue bit-for-bit),
    and the in-process sequential reference runner that fleet output is
    diffed against. *)

val schema : string
(** ["revizor.shard-result.v1"]. *)

val fp_crash : Revizor_obs.Faultpoint.point
(** [fleet.worker_crash] — abrupt [Unix._exit 70] at a test-case
    boundary, as if the worker were SIGKILLed. *)

val fp_hang : Revizor_obs.Faultpoint.point
(** [fleet.worker_hang] — the worker stops polling forever, so its
    lease expires and the orchestrator kills and re-adopts it. *)

type violation_entry = {
  v_tc : int;  (** [stats.test_cases] at detection *)
  v_label : string;
  v_summary : string;
  v_program : string;  (** violation program's asm text *)
  v_inputs : string list;  (** {!Revizor.Results.input_to_line} lines *)
}

type result = {
  r_shard : int;
  r_seed : int64;
  r_attempt : int;  (** adoption attempt that completed the shard *)
  r_violation : violation_entry option;
  r_stats : Revizor.Fuzzer.stats;  (** [elapsed_s] zeroed for determinism *)
  r_atlas : Revizor.Ucoverage.t;
}

val config_of_spec :
  Ledger.spec -> seed:int64 -> (Revizor.Fuzzer.config, string) Stdlib.result

val run_shard :
  ?monitor_path:string ->
  ?chaos:bool ->
  dir:string ->
  spec:Ledger.spec ->
  shard_id:int ->
  seed:int64 ->
  attempt:int ->
  unit ->
  (result, string) Stdlib.result
(** Run (or, when the shard's checkpoint file exists, resume) one
    shard's campaign to completion. [chaos] (worker processes only)
    arms the [fleet.worker_crash]/[fleet.worker_hang] points, salted by
    (seed, attempt, test case) so a crash schedule never replays
    identically after re-adoption. *)

val to_json : result -> Revizor_obs.Json.t
val of_json : Revizor_obs.Json.t -> (result, string) Stdlib.result
val violation_to_json : violation_entry -> Revizor_obs.Json.t

val violation_of_json : violation_entry Revizor_obs.Json.decoder
(** The entry as nested in shard results and the merged document; the
    enclosing document's decoder prefixes its codec to the errors. *)

val save_result : dir:string -> result -> unit
(** Atomic write of the shard's [revizor.shard-result.v1] document. *)

val load_result : dir:string -> int -> (result, string) Stdlib.result
val result_exists : dir:string -> int -> bool

val child_main :
  dir:string -> spec:Ledger.spec -> shard_id:int -> seed:int64 -> attempt:int -> 'a
(** Entry point for the freshly forked worker. Serves the shard's
    monitor socket, runs the shard, writes the result file and
    [Unix._exit]s — 0 on success, 70 on an injected crash, 71 on any
    error. Never returns. *)
