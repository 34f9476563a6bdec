(* Observability layer (PR 4): histogram bucketing edges, snapshot
   determinism across model-pool sizes, telemetry-off bit-identical
   fuzzing outcomes, JSONL round-trips, and stats.json persistence. *)

open Revizor
module Json = Revizor_obs.Json
module Metrics = Revizor_obs.Metrics
module Telemetry = Revizor_obs.Telemetry
module Probe = Revizor_obs.Probe

let check = Alcotest.check
let tc = Alcotest.test_case
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* --- histogram bucketing -------------------------------------------- *)

let test_bucket_edges () =
  check int "bucket of 0" 0 (Metrics.bucket_of 0);
  check int "bucket of negative" 0 (Metrics.bucket_of (-17));
  check int "bucket of 1" 1 (Metrics.bucket_of 1);
  check int "bucket of 2" 2 (Metrics.bucket_of 2);
  check int "bucket of 3" 2 (Metrics.bucket_of 3);
  check int "bucket of 4" 3 (Metrics.bucket_of 4);
  check int "bucket of 1023" 10 (Metrics.bucket_of 1023);
  check int "bucket of 1024" 11 (Metrics.bucket_of 1024);
  check int "bucket of max_int" 62 (Metrics.bucket_of max_int);
  check int "lower of bucket 0" 0 (Metrics.bucket_lower 0);
  check int "lower of bucket 1" 1 (Metrics.bucket_lower 1);
  check int "lower of bucket 62" (1 lsl 61) (Metrics.bucket_lower 62);
  (* Every bucket's lower bound maps back to that bucket, and each
     bucket's last value still belongs to it. *)
  for b = 0 to 62 do
    check int
      (Printf.sprintf "bucket_of (bucket_lower %d)" b)
      b
      (Metrics.bucket_of (Metrics.bucket_lower b));
    if b >= 1 && b < 62 then
      check int
        (Printf.sprintf "last value of bucket %d" b)
        b
        (Metrics.bucket_of ((Metrics.bucket_lower (b + 1)) - 1))
  done

let test_histogram_summary () =
  Metrics.reset ();
  let h = Metrics.histogram "test.obs.hist" in
  List.iter (Metrics.observe h) [ 0; 1; 1; 3; 1024; max_int ];
  let s = Metrics.snapshot () in
  let hs = List.assoc "test.obs.hist" s.Metrics.histograms in
  check int "count" 6 hs.Metrics.h_count;
  check bool "sum overflowed is still a sum" true
    (hs.Metrics.h_sum = 0 + 1 + 1 + 3 + 1024 + max_int);
  check
    (Alcotest.list (Alcotest.pair int int))
    "non-zero buckets, ascending"
    [ (0, 1); (1, 2); (2, 1); (1024, 1); (1 lsl 61, 1) ]
    hs.Metrics.h_buckets;
  (* The same samples as counted runs, a run of none included. *)
  let hn = Metrics.histogram "test.obs.hist_n" in
  List.iter
    (fun (v, n) -> Metrics.observe_n hn v n)
    [ (0, 1); (1, 2); (5, 0); (3, 1); (1024, 1); (max_int, 1) ];
  let s = Metrics.snapshot () in
  check bool "observe_n records what as many observe calls do" true
    (List.assoc "test.obs.hist_n" s.Metrics.histograms
    = List.assoc "test.obs.hist" s.Metrics.histograms)

(* --- snapshot determinism ------------------------------------------- *)

(* Time metrics (suffix "ns"), pool scheduling counters (prefix "pool.")
   and gauges are nondeterministic by design; everything else must be a
   pure function of the seed, whatever the executor-pool size. *)
let deterministic_counters (s : Metrics.summary) =
  List.filter
    (fun (name, _) ->
      (not (String.ends_with ~suffix:"ns" name))
      && not (String.starts_with ~prefix:"pool." name))
    s.Metrics.counters

let fuzz_counters ~executor_domains ~seed ~budget =
  Metrics.reset ();
  let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target1 in
  let cfg = { cfg with Fuzzer.executor_domains } in
  let _ = Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases budget) in
  deterministic_counters (Metrics.snapshot ())

let counters_t = Alcotest.(list (pair string int))

let test_snapshot_determinism () =
  let base = fuzz_counters ~executor_domains:1 ~seed:3L ~budget:30 in
  check bool "some deterministic counters" true (List.length base > 10);
  check counters_t "same seed, same counters"
    base
    (fuzz_counters ~executor_domains:1 ~seed:3L ~budget:30);
  List.iter
    (fun d ->
      check counters_t
        (Printf.sprintf "executor_domains=%d matches serial" d)
        base
        (fuzz_counters ~executor_domains:d ~seed:3L ~budget:30))
    [ 2; 4 ]

(* --- telemetry on/off leaves outcomes bit-identical ------------------ *)


let run_fuzz ~seed ~budget =
  let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target1 in
  let outcome, stats = Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases budget) in
  (Support.outcome_fingerprint outcome, Support.stats_fingerprint stats)

let test_telemetry_transparent () =
  List.iter
    (fun seed ->
      Telemetry.disable ();
      let off = run_fuzz ~seed ~budget:15 in
      let buf = Buffer.create 4096 in
      Telemetry.enable_buffer buf;
      let on =
        Fun.protect ~finally:Telemetry.disable (fun () ->
            run_fuzz ~seed ~budget:15)
      in
      check bool
        (Printf.sprintf "seed %Ld: sink captured lines" seed)
        true
        (Buffer.length buf > 0);
      check
        (Alcotest.pair string string)
        (Printf.sprintf "seed %Ld: identical outcome and stats" seed)
        off on)
    [ 1L; 2L; 3L; 4L; 5L ]

(* --- JSONL round-trips ----------------------------------------------- *)

let test_jsonl_roundtrip () =
  let buf = Buffer.create 4096 in
  Telemetry.enable_buffer buf;
  Fun.protect ~finally:Telemetry.disable (fun () ->
      Telemetry.set_context [ ("tc", Json.Int 7) ];
      Telemetry.event "unit.event"
        [
          ("n", Json.Int 42);
          ("label", Json.String "a \"quoted\" value\n");
          ("ratio", Json.Float 0.25);
          ("flag", Json.Bool true);
          ("nothing", Json.Null);
        ];
      let p = Probe.create "unit_probe" in
      Probe.with_span p (fun () -> ignore (Sys.opaque_identity (1 + 1))));
  let lines =
    Buffer.contents buf |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  check bool "at least event + span" true (List.length lines >= 2);
  List.iter
    (fun line ->
      match Telemetry.parse_line line with
      | Error e -> Alcotest.failf "unparseable line %S: %s" line e
      | Ok l ->
          check string "render/parse round-trip" line (Telemetry.render_line l);
          check bool "context merged into every line" true
            (List.mem_assoc "tc" l.Telemetry.l_fields))
    lines;
  (* Kind sanity: the probe span is tagged as such. *)
  let kinds =
    List.filter_map
      (fun l ->
        match Telemetry.parse_line l with
        | Ok p -> Some (p.Telemetry.l_kind, p.Telemetry.l_name)
        | Error _ -> None)
      lines
  in
  check bool "has the event" true (List.mem ("event", "unit.event") kinds);
  check bool "has the span" true (List.mem ("span", "stage.unit_probe") kinds)

let test_json_value_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool false;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.1;
      Json.Float 1e18;
      Json.String "nested \\ \"chars\" \t\n";
      Json.List [ Json.Int 1; Json.List []; Json.Obj [] ];
      Json.Obj
        [ ("b", Json.Int 2); ("a", Json.Int 1); ("c", Json.List [ Json.Null ]) ];
    ]
  in
  List.iter
    (fun j ->
      let s = Json.to_string j in
      match Json.parse s with
      | Error e -> Alcotest.failf "parse %S failed: %s" s e
      | Ok j' -> check string "round-trip" s (Json.to_string j'))
    samples

(* --- stats.json persistence ------------------------------------------ *)

let test_stats_json_roundtrip () =
  (* Target 5 x CT-SEQ detects quickly (spectre-v1 is in reach). *)
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target5 in
  Metrics.reset ();
  match Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 500) with
  | Fuzzer.No_violation, _ -> Alcotest.fail "expected a violation on target 5"
  | Fuzzer.Violation v, stats ->
      Support.with_tmpdir "obs" (fun dir ->
          Results.save_violation ~stats ~ucoverage:(Ucoverage.create ()) ~dir v;
          check bool "stats.json written" true
            (Sys.file_exists (Filename.concat dir "stats.json"));
          match Results.load_stats (Filename.concat dir "stats.json") with
          | Error e -> Alcotest.failf "load_stats: %s" e
          | Ok saved -> (
              (match saved.Results.stats with
              | None -> Alcotest.fail "stats missing"
              | Some s ->
                  check string "stats round-trip" (Support.stats_fingerprint stats)
                    (Support.stats_fingerprint s));
              match Json.member "counters" saved.Results.metrics with
              | Some (Json.Obj counters) ->
                  check bool "metrics snapshot captured" true
                    (List.mem_assoc "fuzzer.test_cases" counters)
              | _ -> Alcotest.fail "metrics.counters missing"))

(* --- the persisted documents ------------------------------------------- *)

(* The document [save path] writes, parsed back. *)
let written save =
  Support.with_tmpdir "obs" (fun dir ->
      Revizor_obs.Dir.mkdir_p dir;
      let path = Filename.concat dir "doc.json" in
      save path;
      match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Ok j -> j
      | Error e -> Alcotest.failf "%s: %s" path e)

(* (codec, a document it wrote, its decoder, writes a version field) for
   every persisted document. *)
let persisted_documents () =
  let module Ledger = Revizor_fleet.Ledger in
  let module Merge = Revizor_fleet.Merge in
  let module Worker = Revizor_fleet.Worker in
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target1 in
  let last = ref None in
  let _, stats =
    Fuzzer.fuzz ~on_checkpoint:(fun s -> last := Some s) cfg
      ~budget:(Fuzzer.Test_cases 2)
  in
  let snap = Option.get !last in
  let spec =
    Ledger.default_spec ~target:"Target 1" ~contract:"CT-SEQ" ~seeds:[ 1L ]
  in
  let forensics =
    {
      Forensics.f_label = "V1";
      f_program_asm = "";
      f_index_a = 0;
      f_index_b = 1;
      f_inputs = [];
      f_ctrace = "";
      f_htrace_a = [];
      f_htrace_b = [];
      f_only_a = [];
      f_only_b = [];
      f_timelines = [];
      f_fenced_asm = "";
      f_fence_positions = [];
      f_leak_region = None;
    }
  in
  let shard_result =
    {
      Worker.r_shard = 0;
      r_seed = 1L;
      r_attempt = 1;
      r_violation = None;
      r_stats = stats;
      r_atlas = Ucoverage.create ();
    }
  in
  let unit_of r = Result.map ignore r in
  [
    ("checkpoint", Campaign.to_json cfg snap,
     (fun j -> unit_of (Campaign.of_json cfg j)), true);
    ("ucoverage", Ucoverage.to_json (Ucoverage.create ()),
     (fun j -> unit_of (Ucoverage.of_json j)), true);
    ("ledger", Ledger.to_json (Ledger.create ~dir:"fleet" spec),
     (fun j -> unit_of (Ledger.of_json ~dir:"fleet" j)), true);
    ("merged doc", Merge.to_json (Merge.create ~spec),
     (fun j -> unit_of (Merge.of_json j)), false);
    ("shard result", Worker.to_json shard_result,
     (fun j -> unit_of (Worker.of_json j)), false);
    ("forensics", Forensics.to_json forensics,
     (fun j -> unit_of (Forensics.of_json j)), false);
    ("stats", written (fun path -> Results.save_stats ~stats ~ucoverage:(Ucoverage.create ()) ~path),
     (fun j -> unit_of (Results.stats_of_json j)), false);
  ]

(* [edit k (Some v)] sets field [k] to [v]; [edit k None] drops it. *)
let edit k v = function
  | Json.Obj kvs ->
      Json.Obj
        (List.filter_map
           (fun (k', v') ->
             if k' = k then Option.map (fun v -> (k, v)) v else Some (k', v'))
           kvs)
  | _ -> Alcotest.fail "document is not an object"

(* Each decoder, given a document it wrote, with the schema replaced,
   removed or bumped to another version (and, where the codec writes a
   version field, that field changed): every variant must be an [Error]
   that names the codec. *)
let test_schema_envelope () =
  List.iter
    (fun (codec, doc, decode, versioned) ->
      (match decode doc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: own document refused: %s" codec e);
      let schema = Option.get (Option.bind (Json.member "schema" doc) Json.to_str) in
      let bumped = String.sub schema 0 (String.length schema - 1) ^ "2" in
      let variants =
        [
          ("wrong schema", edit "schema" (Some (Json.String "revizor.other.v1")) doc);
          ("missing schema", edit "schema" None doc);
          ("schema of the next version", edit "schema" (Some (Json.String bumped)) doc);
        ]
        @
        if versioned then
          [
            ("wrong version", edit "version" (Some (Json.Int 99)) doc);
            ("missing version", edit "version" None doc);
          ]
        else []
      in
      List.iter
        (fun (what, j) ->
          match decode j with
          | Ok () -> Alcotest.failf "%s: %s accepted" codec what
          | Error e ->
              check bool
                (Printf.sprintf "%s, %s: error %S names the codec" codec what e)
                true
                (String.starts_with ~prefix:(codec ^ ": ") e))
        variants)
    (persisted_documents ())

(* A value of every JSON shape, for replacing a member of a document. *)
let json_shapes =
  Json.
    [
      Null; Bool true; Int (-1); Int (1 lsl 40); Float 0.5; String ""; List [];
      Obj [];
    ]

(* Damaged copies of each document: truncated and single-byte-flipped
   text at spread-out offsets, each top-level key dropped, and each
   top-level value replaced by a value of every other shape. Parsing and
   decoding must answer [Ok] or [Error]; neither may raise. *)
let test_damaged_documents () =
  List.iter
    (fun (codec, doc, decode, _) ->
      let text = Json.to_string_pretty doc in
      let n = String.length text in
      let offsets = List.init 24 (fun i -> i * n / 24) in
      let flip at mask =
        String.mapi
          (fun i c -> if i = at then Char.chr (Char.code c lxor mask) else c)
          text
      in
      let keys = match doc with Json.Obj kvs -> List.map fst kvs | _ -> [] in
      let damaged =
        List.map (fun at -> String.sub text 0 at) offsets
        @ List.concat_map (fun at -> [ flip at 0x01; flip at 0x20 ]) offsets
        @ List.concat_map
            (fun k ->
              List.map Json.to_string
                (edit k None doc
                :: List.map (fun v -> edit k (Some v) doc) json_shapes))
            keys
      in
      List.iter
        (fun text ->
          match Result.bind (Json.parse text) decode with
          | Ok () | Error _ -> ()
          | exception e ->
              Alcotest.failf "%s: decoding raised %s on %S" codec
                (Printexc.to_string e) text)
        damaged)
    (persisted_documents ())

(* Populated copies of the persisted documents, the parts an empty one
   leaves out included: a checkpoint with pattern coverage and an atlas,
   a ledger with leased, backed-off and finished shards, a merged
   document and a shard result each carrying a violation, forensics with
   timelines, and stats with an atlas. *)
let populated_documents () =
  let module Ledger = Revizor_fleet.Ledger in
  let module Merge = Revizor_fleet.Merge in
  let module Worker = Revizor_fleet.Worker in
  let cfg = Target.fuzzer_config ~seed:5L Contract.ct_cond Target.target5 in
  let last = ref None in
  let atlas = Ucoverage.create () in
  let _, stats =
    Fuzzer.fuzz ~ucoverage:atlas ~on_checkpoint:(fun s -> last := Some s) cfg
      ~budget:(Fuzzer.Test_cases 10)
  in
  let snap = Option.get !last in
  let spec =
    Ledger.default_spec ~target:"Target 5" ~contract:"CT-SEQ"
      ~seeds:[ 1L; 2L; 3L ]
  in
  let ledger = Ledger.create ~dir:"fleet" spec in
  Ledger.lease ledger.Ledger.shards.(0) ~pid:4242 ~now:1000. ~lease_s:5.;
  Ledger.mark_failed ledger ledger.Ledger.shards.(1) ~now:1000.;
  Ledger.mark_done ledger.Ledger.shards.(2);
  let violation =
    match
      Experiments.check_gadget Contract.ct_seq Target.target5 Gadgets.spectre_v1
    with
    | Ok (Some v) -> v
    | Ok None | Error _ -> Alcotest.fail "the V1 gadget must violate CT-SEQ"
  in
  let shard_result =
    {
      Worker.r_shard = 0;
      r_seed = 1L;
      r_attempt = 2;
      r_violation =
        Some
          {
            Worker.v_tc = 7;
            v_label = violation.Violation.label;
            v_summary = Violation.summary violation;
            v_program = Revizor_isa.Program.to_string violation.Violation.program;
            v_inputs = List.map Results.input_to_line violation.Violation.inputs;
          };
      r_stats = stats;
      r_atlas = atlas;
    }
  in
  let merged = Merge.create ~spec in
  ignore (Merge.commit merged shard_result);
  let forensics =
    Forensics.capture
      (Target.fuzzer_config ~seed:42L Contract.ct_seq Target.target5)
      violation
  in
  let unit_of r = Result.map ignore r in
  [
    ("checkpoint", Campaign.to_json cfg snap,
     fun j -> unit_of (Campaign.of_json cfg j));
    ("ledger", Ledger.to_json ledger,
     fun j -> unit_of (Ledger.of_json ~dir:"fleet" j));
    ("merged doc", Merge.to_json merged, fun j -> unit_of (Merge.of_json j));
    ("shard result", Worker.to_json shard_result,
     fun j -> unit_of (Worker.of_json j));
    ("forensics", Forensics.to_json forensics,
     fun j -> unit_of (Forensics.of_json j));
    ("stats",
     written (fun path -> Results.save_stats ~stats ~ucoverage:atlas ~path),
     fun j -> unit_of (Results.stats_of_json j));
  ]

(* Every copy of [j] with one member or list element, at any depth,
   dropped or replaced by a value of each JSON shape, passed to [emit]. *)
let rec iter_damaged emit (j : Json.t) =
  let slot x rebuild drop =
    emit drop;
    List.iter (fun v -> emit (rebuild v)) json_shapes;
    iter_damaged (fun v -> emit (rebuild v)) x
  in
  match j with
  | Json.Obj kvs ->
      List.iteri
        (fun i (k, v) ->
          slot v
            (fun v' ->
              Json.Obj (List.mapi (fun i' kv -> if i' = i then (k, v') else kv) kvs))
            (Json.Obj (List.filteri (fun i' _ -> i' <> i) kvs)))
        kvs
  | Json.List xs ->
      List.iteri
        (fun i x ->
          slot x
            (fun x' -> Json.List (List.mapi (fun i' y -> if i' = i then x' else y) xs))
            (Json.List (List.filteri (fun i' _ -> i' <> i) xs)))
        xs
  | _ -> ()

let test_nested_damage () =
  List.iter
    (fun (codec, doc, decode) ->
      (match decode doc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: own document refused: %s" codec e);
      let variants = ref 0 in
      iter_damaged
        (fun j ->
          incr variants;
          match decode j with
          | Ok () | Error _ -> ()
          | exception e ->
              Alcotest.failf "%s: decoding raised %s on %s" codec
                (Printexc.to_string e) (Json.to_string j))
        doc;
      check bool
        (Printf.sprintf "%s: %d damaged variants decoded without raising"
           codec !variants)
        true (!variants > 100))
    (populated_documents ())

(* --- output paths in directories that do not exist yet ---------------- *)

let test_writes_create_directories () =
  Support.with_tmpdir "obs-nested" @@ fun root ->
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target1 in
  let last = ref None in
  let _, stats =
    Fuzzer.fuzz ~on_checkpoint:(fun s -> last := Some s) cfg
      ~budget:(Fuzzer.Test_cases 2)
  in
  let stats_path = Filename.concat root "stats/out/s.json" in
  Results.save_stats ~stats ~ucoverage:(Ucoverage.create ()) ~path:stats_path;
  check bool "stats document in a fresh nested directory" true
    (Result.is_ok (Results.load_stats stats_path));
  let ckpt = Filename.concat root "ckpt/out/c.json" in
  Campaign.save ~path:ckpt cfg (Option.get !last);
  check bool "checkpoint in a fresh nested directory" true
    (Result.is_ok (Campaign.load ~path:ckpt cfg));
  let trace = Filename.concat root "trace/out/t.jsonl" in
  Telemetry.enable_file trace;
  Telemetry.disable ();
  check bool "trace file in a fresh nested directory" true (Sys.file_exists trace)

(* --- the stage table of a stats document ------------------------------ *)

let stage_table_of counters gauges =
  Results.stage_table
    {
      Results.stats = None;
      ucoverage = None;
      metrics = Metrics.to_json { Metrics.counters; gauges; histograms = [] };
    }

(* On a hand-built snapshot: the stage counter pairs by descending time,
   and the share of the [fuzzer.elapsed_s] gauge they cover. *)
let test_stage_table () =
  let counters =
    [
      ("fuzzer.test_cases", 7); ("stage.a.calls", 3);
      ("stage.a.ns", 300_000_000); ("stage.b.calls", 1);
      ("stage.b.ns", 600_000_000);
    ]
  in
  (match stage_table_of counters [ ("fuzzer.elapsed_s", 1.) ] with
  | Error e -> Alcotest.fail e
  | Ok t ->
      check int "counters" 5 t.Results.counters;
      check
        Alcotest.(list (pair string int))
        "stages and calls, by descending time"
        [ ("b", 1); ("a", 3) ]
        (List.map
           (fun (st : Metrics.stage) -> (st.Metrics.st_name, st.Metrics.st_calls))
           t.Results.stages);
      check (Alcotest.float 1e-9) "share of campaign time" 0.9
        t.Results.accounted_share);
  List.iter
    (fun (what, counters, gauges) ->
      check bool (what ^ " refused") true
        (Result.is_error (stage_table_of counters gauges)))
    [
      ("no counters", [], [ ("fuzzer.elapsed_s", 1.) ]);
      ("no campaign time", counters, []);
      ("zero campaign time", counters, [ ("fuzzer.elapsed_s", 0.) ]);
    ]

(* A campaign's own stats.json: the stages cover at least 95% of its
   loop time, also in a resumed process, whose registry counts only the
   resumed segment while [stats.elapsed_s] carries both. *)
let test_stage_table_of_campaign () =
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target1 in
  let table what stats =
    let doc = written (fun path -> Results.save_stats ~stats ~ucoverage:(Ucoverage.create ()) ~path) in
    match Result.bind (Results.stats_of_json doc) Results.stage_table with
    | Error e -> Alcotest.failf "%s: %s" what e
    | Ok t ->
        check bool
          (Printf.sprintf "%s: stages cover %.3f of the campaign time" what
             t.Results.accounted_share)
          true
          (t.Results.accounted_share >= 0.95);
        t
  in
  Metrics.reset ();
  let last = ref None in
  let _, first =
    Fuzzer.fuzz ~on_checkpoint:(fun s -> last := Some s) cfg
      ~budget:(Fuzzer.Test_cases 40)
  in
  ignore (table "fresh campaign" first);
  Metrics.reset ();
  let _, resumed =
    Fuzzer.fuzz ~resume:(Option.get !last) cfg ~budget:(Fuzzer.Test_cases 80)
  in
  let t = table "resumed campaign" resumed in
  check bool "campaign time is the resumed segment's" true
    (t.Results.campaign_s < resumed.Fuzzer.elapsed_s)

(* The gate passes a one-domain table (the [runtime.domain_count] gauge
   at 1, or missing, as in documents of older campaigns) that covers 95%
   of its campaign time, and refuses a pooled campaign's table, whose
   stages sum every domain's time, naming the domain count. *)
let test_stage_table_domains () =
  let counters = [ ("stage.a.calls", 1); ("stage.a.ns", 960_000_000) ] in
  let gate gauges =
    match stage_table_of counters (("fuzzer.elapsed_s", 1.) :: gauges) with
    | Error e -> Alcotest.fail e
    | Ok t -> (t.Results.domains, Results.check_stage_table t)
  in
  let verdict = Alcotest.(pair int (result unit string)) in
  check verdict "no gauge reads as one domain" (1, Ok ()) (gate []);
  check verdict "one domain" (1, Ok ()) (gate [ ("runtime.domain_count", 1.) ]);
  let rec contains s sub i =
    i + String.length sub <= String.length s
    && (String.sub s i (String.length sub) = sub || contains s sub (i + 1))
  in
  (match gate [ ("runtime.domain_count", 2.) ] with
  | 2, Error e ->
      check bool ("names the domain count: " ^ e) true (contains e "2 domains" 0)
  | d, _ -> Alcotest.failf "pooled table passed (%d domains)" d);
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target1 in
  Metrics.reset ();
  let _, stats =
    Fuzzer.fuzz { cfg with Fuzzer.executor_domains = 2 } ~budget:(Fuzzer.Test_cases 40)
  in
  let doc = written (fun path -> Results.save_stats ~stats ~ucoverage:(Ucoverage.create ()) ~path) in
  match Result.bind (Results.stats_of_json doc) Results.stage_table with
  | Error e -> Alcotest.fail e
  | Ok t ->
      check int "a two-domain campaign's table counts two domains" 2 t.Results.domains;
      check bool "and is refused" true (Result.is_error (Results.check_stage_table t))

(* --- probes record even on exceptions --------------------------------- *)

let test_probe_exception () =
  Metrics.reset ();
  let p = Probe.create "unit_raises" in
  (try Probe.with_span p (fun () -> failwith "boom") with Failure _ -> ());
  let s = Metrics.snapshot () in
  check int "call counted" 1 (List.assoc "stage.unit_raises.calls" s.Metrics.counters);
  check bool "time recorded" true
    (List.assoc "stage.unit_raises.ns" s.Metrics.counters >= 0)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          tc "bucketing edges" `Quick test_bucket_edges;
          tc "histogram summary" `Quick test_histogram_summary;
          tc "probe records on exception" `Quick test_probe_exception;
          tc "stage table of a snapshot" `Quick test_stage_table;
          tc "stage table of a campaign, fresh and resumed" `Quick
            test_stage_table_of_campaign;
          tc "stage table of a pooled campaign refused" `Quick
            test_stage_table_domains;
        ] );
      ( "determinism",
        [
          tc "snapshot deterministic across pool sizes" `Slow
            test_snapshot_determinism;
          tc "telemetry on/off transparent" `Slow test_telemetry_transparent;
        ] );
      ( "serialization",
        [
          tc "JSONL round-trip" `Quick test_jsonl_roundtrip;
          tc "Json value round-trip" `Quick test_json_value_roundtrip;
          tc "stats.json round-trip" `Slow test_stats_json_roundtrip;
          tc "schema envelope of every persisted document" `Quick
            test_schema_envelope;
          tc "damaged documents never raise" `Quick test_damaged_documents;
          tc "nested damage of populated documents never raises" `Quick
            test_nested_damage;
          tc "output paths in missing directories" `Quick
            test_writes_create_directories;
        ] );
    ]
