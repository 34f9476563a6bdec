open Revizor_isa

(** Persistence of detected violations, mirroring the artifact's results
    directories (§A.5): each violation is stored as an assembly listing of
    the test case, the input seeds of the priming sequence, and a
    human-readable report. Saved test cases can be reloaded and re-checked
    with {!Fuzzer.check_test_case}. *)

val save_violation :
  ?stats:Fuzzer.stats ->
  ?ucoverage:Ucoverage.t ->
  ?metrics:Revizor_obs.Metrics.summary ->
  dir:string ->
  Violation.t ->
  unit
(** Writes [dir/violation.asm], [dir/inputs.txt], [dir/report.txt] and
    [dir/stats.json] (creating [dir] if needed). [stats.json] captures
    the fuzzing statistics at detection time ([stats], omitted as [null]
    when not given), the campaign's microarchitectural coverage atlas
    ([ucoverage], omitted entirely when not given) and a
    metrics-registry snapshot ([metrics], defaulting to a fresh
    {!Revizor_obs.Metrics.snapshot}). *)

val save_stats :
  ?stats:Fuzzer.stats ->
  ?ucoverage:Ucoverage.t ->
  ?metrics:Revizor_obs.Metrics.summary ->
  path:string ->
  unit ->
  unit
(** Write just the [revizor.stats.v1] document to [path] — what
    [revizor fuzz --stats-out] uses so compliant campaigns, which never
    produce a violation directory, still leave a stats/coverage artifact
    for [revizor coverage]. *)

val mkdir_p : string -> unit
(** {!Revizor_obs.Dir.mkdir_p}. Every artifact write creates its own
    directory; this is for directories the program needs before it
    writes into them (a fleet's campaign directory). *)

type saved_stats = {
  stats : Fuzzer.stats option;
  metrics : Revizor_obs.Json.t;  (** as produced by {!Revizor_obs.Metrics.to_json} *)
  ucoverage : Ucoverage.t option;
      (** the coverage atlas, when the file has one (absent in stats
          files written before the atlas existed) *)
}

val stats_of_json : Revizor_obs.Json.t -> (saved_stats, string) result
(** Decode a [revizor.stats.v1] document; any other schema is an error. *)

val load_stats : string -> (saved_stats, string) result
(** Read back a [stats.json] ({!stats_of_json}); errors name the path. *)

val save_metrics :
  ?stats:Fuzzer.stats -> elapsed:float -> path:string -> unit -> unit
(** Write the [revizor.metrics.v1] document ([revizor fuzz
    --metrics-out]): a fresh {!Revizor_obs.Metrics.snapshot}, its stage
    breakdown with each stage's share of [elapsed] wall seconds, the
    share all stages account for, and [stats] ([null] when not given). *)

type saved_metrics = {
  counters : (string * int) list;  (** [metrics.counters], never empty *)
  stages : string list;  (** stage names, by descending time *)
  accounted_share : float;  (** of wall time, covered by the stages *)
}

val metrics_of_json : Revizor_obs.Json.t -> (saved_metrics, string) result
(** Decode a [revizor.metrics.v1] document: the schema, a non-empty
    [metrics.counters], a [stages] object and a numeric
    [accounted_share]. *)

val load_metrics : string -> (saved_metrics, string) result
(** Read back a metrics document ({!metrics_of_json}); errors name the
    path. *)

val load_program : string -> (Program.t, string) result
(** Parse a saved [*.asm] file. *)

val save_inputs : string -> Input.t list -> unit
val load_inputs : string -> (Input.t list, string) result

val input_to_line : Input.t -> string
(** ["seed=0x... entropy=N"]. *)

val input_of_line : string -> (Input.t, string) result
