open Revizor_isa

(* All result artifacts go through the shared write-tmp-then-rename
   helper: a crash (or injected writer fault) mid-write never leaves a
   torn file where a previous good one stood. *)
let write_file path contents = Revizor_obs.Atomic_file.write path contents

let read_file path = In_channel.with_open_bin path In_channel.input_all

let input_to_line (i : Input.t) =
  Printf.sprintf "seed=0x%Lx entropy=%d" i.Input.seed i.Input.entropy

let input_of_line line =
  let value prefix s =
    if String.starts_with ~prefix s then
      Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
    else None
  in
  match String.split_on_char ' ' (String.trim line) with
  | [ s; e ] -> (
      match
        ( Option.bind (value "seed=" s) Int64.of_string_opt,
          Option.bind (value "entropy=" e) int_of_string_opt )
      with
      | Some seed, Some entropy -> Ok { Input.seed; entropy }
      | _ -> Error (Printf.sprintf "malformed input line %S" line))
  | _ -> Error (Printf.sprintf "malformed input line %S" line)

let save_inputs path inputs =
  write_file path
    (String.concat "\n" (List.map input_to_line inputs) ^ "\n")

(* Blank lines are skipped; the first malformed line is the error. *)
let load_inputs path =
  match read_file path with
  | exception Sys_error e -> Error e
  | contents ->
      List.fold_right
        (fun line rest ->
          if String.trim line = "" then rest
          else Result.bind (input_of_line line) (fun i -> Result.map (List.cons i) rest))
        (String.split_on_char '\n' contents)
        (Ok [])

let load_program path =
  match read_file path with
  | contents -> Asm_parser.parse_program contents
  | exception Sys_error e -> Error e

module Json = Revizor_obs.Json

type saved_stats = {
  stats : Fuzzer.stats option;
  metrics : Json.t;
  ucoverage : Ucoverage.t option;
}

let stats_schema = "revizor.stats.v1"

let save_stats ~stats ~ucoverage ~path =
  let doc =
    Json.Obj
      [
        ("schema", Json.String stats_schema);
        ("stats", Fuzzer.stats_to_json stats);
        ("metrics", Revizor_obs.Metrics.(to_json (snapshot ())));
        ("ucoverage", Ucoverage.to_json ucoverage);
      ]
  in
  write_file path (Json.to_string_pretty doc ^ "\n")

let save_violation ~stats ~ucoverage ~dir (v : Violation.t) =
  write_file
    (Filename.concat dir "violation.asm")
    (Program.to_string v.Violation.program ^ "\n");
  save_inputs (Filename.concat dir "inputs.txt") v.Violation.inputs;
  write_file
    (Filename.concat dir "report.txt")
    (Format.asprintf "%a@." Violation.pp v);
  save_stats ~stats ~ucoverage ~path:(Filename.concat dir "stats.json")

let ( let* ) = Result.bind

let stats_decoder j =
  let* () = Json.check_schema stats_schema j in
  let metrics = Option.value (Json.member "metrics" j) ~default:Json.Null in
  (* The writer always emits the stats and the atlas. Older files may
     lack the atlas or hold [null] stats, and load either as [None]; a
     malformed section is an error, not a silent [None]. *)
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

(* --- the stage table (telemetry-check --stats) ---------------------- *)

module Metrics = Revizor_obs.Metrics

type stage_table = {
  counters : int;
  stages : Metrics.stage list;
  campaign_s : float;
  accounted_share : float;
  domains : int;
}

let stage_table (saved : saved_stats) =
  let named d = Json.assoc (fun k v -> Result.map (fun x -> (k, x)) (d v)) in
  let* counters = Json.field "counters" (named Json.int) saved.metrics in
  let* gauges = Json.field "gauges" (named Json.float) saved.metrics in
  match List.assoc_opt "fuzzer.elapsed_s" gauges with
  | _ when counters = [] -> Error "metrics.counters is empty"
  | Some campaign_s when campaign_s > 0. ->
      let stages =
        Metrics.stage_breakdown { Metrics.counters; gauges; histograms = [] }
      in
      let ns = List.fold_left (fun n st -> n + st.Metrics.st_total_ns) 0 stages in
      let accounted_share = float_of_int ns /. (campaign_s *. 1e9) in
      let domains =
        Option.fold ~none:1 ~some:int_of_float (List.assoc_opt "runtime.domain_count" gauges)
      in
      Ok { counters = List.length counters; stages; campaign_s; accounted_share; domains }
  | _ -> Error "no campaign time (gauge fuzzer.elapsed_s)"

(* Stage counters add up every executor domain's busy time and the
   registry keeps no per-domain split: only a one-domain share is
   checkable. *)
let check_stage_table t =
  if t.domains > 1 then
    Error (Printf.sprintf "stages summed over %d domains cannot be checked" t.domains)
  else if t.accounted_share < 0.95 then Error "below 95%"
  else Ok ()
