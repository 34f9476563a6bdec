open Revizor_isa

(* All result artifacts go through the shared write-tmp-then-rename
   helper: a crash (or injected writer fault) mid-write never leaves a
   torn file where a previous good one stood. *)
let write_file path contents = Revizor_obs.Atomic_file.write path contents

let read_file path = In_channel.with_open_bin path In_channel.input_all

let input_to_line (i : Input.t) =
  Printf.sprintf "seed=0x%Lx entropy=%d" i.Input.seed i.Input.entropy

let input_of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ seed_part; entropy_part ] -> (
      let strip prefix s =
        if String.length s > String.length prefix
           && String.sub s 0 (String.length prefix) = prefix
        then Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
        else None
      in
      match (strip "seed=" seed_part, strip "entropy=" entropy_part) with
      | Some seed_s, Some entropy_s -> (
          match (Int64.of_string_opt seed_s, int_of_string_opt entropy_s) with
          | Some seed, Some entropy -> Ok { Input.seed; entropy }
          | _ -> Error (Printf.sprintf "malformed input line %S" line))
      | _ -> Error (Printf.sprintf "malformed input line %S" line))
  | _ -> Error (Printf.sprintf "malformed input line %S" line)

let save_inputs path inputs =
  write_file path
    (String.concat "\n" (List.map input_to_line inputs) ^ "\n")

let load_inputs path =
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then collect acc rest
        else (
          match input_of_line line with
          | Ok i -> collect (i :: acc) rest
          | Error e -> Error e)
  in
  match read_file path with
  | contents -> collect [] (String.split_on_char '\n' contents)
  | exception Sys_error e -> Error e

let load_program path =
  match read_file path with
  | contents -> Asm_parser.parse_program contents
  | exception Sys_error e -> Error e

let mkdir_p = Revizor_obs.Dir.mkdir_p

module Json = Revizor_obs.Json

type saved_stats = {
  stats : Fuzzer.stats option;
  metrics : Json.t;
  ucoverage : Ucoverage.t option;
}

let stats_schema = "revizor.stats.v1"

let stats_json ?stats ?ucoverage ~metrics () =
  Json.Obj
    ([
       ("schema", Json.String stats_schema);
       ( "stats",
         match stats with Some s -> Fuzzer.stats_to_json s | None -> Json.Null
       );
       ("metrics", Revizor_obs.Metrics.to_json metrics);
     ]
    @
    match ucoverage with
    | Some u -> [ ("ucoverage", Ucoverage.to_json u) ]
    | None -> [])

let save_stats ?stats ?ucoverage ?metrics ~path () =
  let metrics =
    match metrics with Some m -> m | None -> Revizor_obs.Metrics.snapshot ()
  in
  write_file path
    (Json.to_string_pretty (stats_json ?stats ?ucoverage ~metrics ()) ^ "\n")

let save_violation ?stats ?ucoverage ?metrics ~dir (v : Violation.t) =
  write_file
    (Filename.concat dir "violation.asm")
    (Program.to_string v.Violation.program ^ "\n");
  save_inputs (Filename.concat dir "inputs.txt") v.Violation.inputs;
  write_file
    (Filename.concat dir "report.txt")
    (Format.asprintf "%a@." Violation.pp v);
  save_stats ?stats ?ucoverage ?metrics
    ~path:(Filename.concat dir "stats.json")
    ()

let ( let* ) = Result.bind

let stats_decoder j =
  let* () = Json.check_schema stats_schema j in
  let metrics = Option.value (Json.member "metrics" j) ~default:Json.Null in
  (* Additive section: stats files from before the atlas existed load
     with [None]; a malformed section is an error, not a silent [None]. *)
  let* ucoverage = Json.field_opt "ucoverage" Ucoverage.of_json j in
  let* stats =
    Json.field "stats"
      (function
        | Json.Null -> Ok None
        | sj -> Result.map Option.some (Fuzzer.stats_of_json sj))
      j
  in
  Ok { stats; metrics; ucoverage }

let stats_of_json = Json.decode ~codec:"stats" stats_decoder
let load_stats = Json.load ~codec:"stats" stats_decoder

(* --- the metrics document (fuzz --metrics-out) ------------------------ *)

module Metrics = Revizor_obs.Metrics

let metrics_schema = "revizor.metrics.v1"

let save_metrics ?stats ~elapsed ~path () =
  let snap = Metrics.snapshot () in
  let stages = Metrics.stage_breakdown snap in
  let wall_ns = elapsed *. 1e9 in
  let share ns = if wall_ns > 0. then float_of_int ns /. wall_ns else 0. in
  let stage_json (st : Metrics.stage) =
    ( st.Metrics.st_name,
      Json.Obj
        [
          ("calls", Json.Int st.Metrics.st_calls);
          ("total_ns", Json.Int st.Metrics.st_total_ns);
          ("share", Json.Float (share st.Metrics.st_total_ns));
        ] )
  in
  let accounted =
    List.fold_left (fun acc st -> acc + st.Metrics.st_total_ns) 0 stages
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String metrics_schema);
        ("elapsed_s", Json.Float elapsed);
        ( "stats",
          match stats with Some s -> Fuzzer.stats_to_json s | None -> Json.Null
        );
        ("stages", Json.Obj (List.map stage_json stages));
        ("accounted_share", Json.Float (share accounted));
        ("metrics", Metrics.to_json snap);
      ]
  in
  write_file path (Json.to_string_pretty doc ^ "\n")

type saved_metrics = {
  counters : (string * int) list;
  stages : string list;
  accounted_share : float;
}

let metrics_decoder j =
  let* () = Json.check_schema metrics_schema j in
  let* counters =
    Json.field "metrics"
      (Json.field "counters"
         (Json.assoc (fun k v -> Result.map (fun n -> (k, n)) (Json.int v))))
      j
  in
  let* () = if counters = [] then Error "metrics.counters is empty" else Ok () in
  let* stages = Json.field "stages" (Json.assoc (fun k _ -> Ok k)) j in
  let* accounted_share = Json.field "accounted_share" Json.float j in
  Ok { counters; stages; accounted_share }

let metrics_of_json = Json.decode ~codec:"metrics" metrics_decoder
let load_metrics = Json.load ~codec:"metrics" metrics_decoder
