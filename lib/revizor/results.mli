open Revizor_isa

(** Persistence of detected violations, mirroring the artifact's results
    directories (§A.5): each violation is stored as an assembly listing of
    the test case, the input seeds of the priming sequence, and a
    human-readable report. Saved test cases can be reloaded and re-checked
    with {!Fuzzer.check_test_case}. *)

val save_violation :
  stats:Fuzzer.stats -> ucoverage:Ucoverage.t -> dir:string -> Violation.t -> unit
(** Writes [dir/violation.asm], [dir/inputs.txt], [dir/report.txt] and
    [dir/stats.json] (creating [dir] if needed). [stats.json] captures
    the fuzzing statistics at detection time ([stats]), the campaign's
    microarchitectural coverage atlas ([ucoverage]) and a fresh
    {!Revizor_obs.Metrics.snapshot}. *)

val save_stats :
  stats:Fuzzer.stats -> ucoverage:Ucoverage.t -> path:string -> unit
(** Write just the [revizor.stats.v1] document to [path] — what
    [revizor fuzz --stats-out] uses so compliant campaigns, which never
    produce a violation directory, still leave a stats/coverage artifact
    for [revizor coverage] and [revizor telemetry-check]. *)

type saved_stats = {
  stats : Fuzzer.stats option;
      (** [None] only in older files, which could write [null] *)
  metrics : Revizor_obs.Json.t;  (** as produced by {!Revizor_obs.Metrics.to_json} *)
  ucoverage : Ucoverage.t option;
      (** the coverage atlas, when the file has one (absent in stats
          files written before the atlas existed) *)
}

val stats_of_json : Revizor_obs.Json.t -> (saved_stats, string) result
(** Decode a [revizor.stats.v1] document; any other schema is an error. *)

val load_stats : string -> (saved_stats, string) result
(** Read back a [stats.json] ({!stats_of_json}); errors name the path. *)

type stage_table = {
  counters : int;  (** registry counters in the snapshot *)
  stages : Revizor_obs.Metrics.stage list;  (** by descending time *)
  campaign_s : float;  (** the registry gauge [fuzzer.elapsed_s] *)
  accounted_share : float;  (** of [campaign_s], covered by [stages] *)
  domains : int;  (** the gauge [runtime.domain_count]; 1 when missing *)
}

val stage_table : saved_stats -> (stage_table, string) result
(** What [revizor telemetry-check --stats] prints: the snapshot's
    [stage.*] counters ({!Revizor_obs.Metrics.stage_breakdown}) and the
    share of the campaign loop's seconds they cover. Both count the
    writing process only, so a resumed campaign's share is its own. An
    error without counters or a positive [fuzzer.elapsed_s]. *)

val check_stage_table : stage_table -> (unit, string) result
(** The [telemetry-check --stats] gate: the stages must cover at least
    95% of [campaign_s], and the campaign must have run on one executor
    domain. The registry sums stage time over every domain and keeps no
    per-domain split, so a pooled campaign's table is refused with an
    error naming its domain count. *)

val load_program : string -> (Program.t, string) result
(** Parse a saved [*.asm] file. *)

val load_inputs : string -> (Input.t list, string) result

val input_to_line : Input.t -> string
(** ["seed=0x... entropy=N"]. *)

val input_of_line : string -> (Input.t, string) result
