(* Microarchitectural coverage atlas (PR 9): feature codecs, harvesting
   from synthetic event records, JSON/checkpoint round-trips, atlas
   determinism across executor-pool sizes, kill-and-resume bit-identity,
   and outcome transparency with collection on or off. *)

open Revizor
open Revizor_uarch
module Json = Revizor_obs.Json
module Metrics = Revizor_obs.Metrics
module Telemetry = Revizor_obs.Telemetry

let check = Alcotest.check
let tc = Alcotest.test_case
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let ev ?(kind = Cpu.Branch_mispredict) ?(pc = 0) ?(loads = 0) ?(sets = [])
    () =
  {
    Cpu.kind;
    origin_pc = pc;
    transient_loads = loads;
    touched_sets = sets;
  }

let atlas_fingerprint u = Json.to_string (Ucoverage.to_json u)

let outcome_summary = function
  | Fuzzer.No_violation -> "none"
  | Fuzzer.Violation v -> Violation.summary v

let stats_fingerprint (s : Fuzzer.stats) =
  let s = { s with Fuzzer.elapsed_s = 0. } in
  Json.to_string (Fuzzer.stats_to_json s)

(* --- feature string codec ---------------------------------------------- *)

let all_test_features =
  List.concat_map
    (fun k ->
      [
        Ucoverage.Kind_origin (k, Ucoverage.O_cond_branch);
        Ucoverage.Kind_origin (k, Ucoverage.O_other);
        Ucoverage.Window (k, 0);
        Ucoverage.Window (k, 5);
        Ucoverage.Footprint (k, 3);
        Ucoverage.Transition (k, Cpu.Store_bypass);
      ])
    Cpu.all_kinds
  @ [ Ucoverage.Depth 0; Ucoverage.Depth 7 ]

let test_feature_string_roundtrip () =
  List.iter
    (fun f ->
      let s = Ucoverage.feature_to_string f in
      match Ucoverage.feature_of_string s with
      | Some f' ->
          check bool (Printf.sprintf "round-trip %s" s) true (f = f')
      | None -> Alcotest.fail (Printf.sprintf "unparsable %s" s))
    all_test_features;
  (* Malformed strings are rejected, not mis-parsed. *)
  List.iter
    (fun s ->
      check bool
        (Printf.sprintf "reject %S" s)
        true
        (Ucoverage.feature_of_string s = None))
    [
      ""; "window"; "window:"; "window:nope:2"; "window:store-bypass:x";
      "kind-origin:branch-mispredict"; "transition:branch-mispredict";
      "depth:x"; "bogus:1";
    ]

(* --- harvesting --------------------------------------------------------- *)

let test_features_of_runs () =
  (* With no descriptors every origin degrades to O_other. *)
  let descs = [||] in
  let run =
    [
      ev ~loads:1 ~sets:[ 3 ] ();
      ev ~kind:Cpu.Store_bypass ~loads:4 ~sets:[ 1; 2; 5 ] ();
    ]
  in
  let fs = Ucoverage.features_of_runs ~descs [ run ] in
  let has f = List.mem f fs in
  check bool "kind-origin harvested" true
    (has (Ucoverage.Kind_origin (Cpu.Branch_mispredict, Ucoverage.O_other)));
  (* 1 transient load -> bucket 1; 4 -> bucket 3 ([4,7]). *)
  check bool "window bucket of 1" true
    (has (Ucoverage.Window (Cpu.Branch_mispredict, Metrics.bucket_of 1)));
  check bool "window bucket of 4" true
    (has (Ucoverage.Window (Cpu.Store_bypass, Metrics.bucket_of 4)));
  (* footprints: 1 set -> bucket 1, 3 sets -> bucket 2. *)
  check bool "footprint of 1 set" true
    (has (Ucoverage.Footprint (Cpu.Branch_mispredict, Metrics.bucket_of 1)));
  check bool "footprint of 3 sets" true
    (has (Ucoverage.Footprint (Cpu.Store_bypass, Metrics.bucket_of 3)));
  (* consecutive pair -> one transition, in order. *)
  check bool "transition recorded" true
    (has (Ucoverage.Transition (Cpu.Branch_mispredict, Cpu.Store_bypass)));
  check bool "reverse transition absent" true
    (not (has (Ucoverage.Transition (Cpu.Store_bypass, Cpu.Branch_mispredict))));
  (* 2 episodes -> depth bucket of 2. *)
  check bool "depth bucket" true (has (Ucoverage.Depth (Metrics.bucket_of 2)));
  (* Empty runs contribute nothing (no Depth-of-zero noise). *)
  check int "empty runs harvest nothing" 0
    (List.length (Ucoverage.features_of_runs ~descs [ []; [] ]));
  (* Identical runs dedupe. *)
  check bool "sorted unique" true
    (Ucoverage.features_of_runs ~descs [ run; run ] = fs)

let test_origin_classification () =
  let open Revizor_isa in
  let program =
    Program.make
      [
        Program.block "bb0"
          [
            Instruction.jcc Cond.Z "skip";
            Instruction.mov (Operand.reg Reg.RAX) (Operand.imm 1);
          ];
        Program.block "skip" [ Instruction.make ~operands:[] Opcode.Ret ];
      ]
  in
  let flat = Program.flatten_exn program in
  let descs = (Revizor_emu.Compiled.of_flat flat).Revizor_emu.Compiled.descs in
  let origin_at pc =
    let fs =
      Ucoverage.features_of_runs ~descs [ [ ev ~pc ~loads:1 () ] ]
    in
    List.find_map
      (function Ucoverage.Kind_origin (_, o) -> Some o | _ -> None)
      fs
  in
  check bool "Jcc classifies as cond-branch" true
    (origin_at 0 = Some Ucoverage.O_cond_branch);
  check bool "plain ALU classifies as other" true
    (origin_at 1 = Some Ucoverage.O_other);
  check bool "out-of-range pc degrades to other" true
    (origin_at 99 = Some Ucoverage.O_other)

(* --- accumulator + JSON round-trip -------------------------------------- *)

let test_register_and_roundtrip () =
  let u = Ucoverage.create () in
  check int "empty atlas" 0 (Ucoverage.distinct u);
  let f1 = Ucoverage.Window (Cpu.Branch_mispredict, 1) in
  let f2 = Ucoverage.Depth 1 in
  Ucoverage.register u ~tc:3 [ f1; f2 ];
  Ucoverage.register u ~tc:7 [ f1 ];
  (* already covered: no frontier advance *)
  Ucoverage.register u ~tc:9 [ f2; Ucoverage.Depth 2 ];
  check int "three distinct" 3 (Ucoverage.distinct u);
  check bool "first hit kept" true
    (List.assoc f1 (Ucoverage.first_hits u) = 3);
  check bool "frontier strictly monotone" true
    (Ucoverage.frontier u = [ (3, 2); (9, 3) ]);
  check bool "kind first hit" true
    (Ucoverage.kind_first_hit u Cpu.Branch_mispredict = Some 3);
  check bool "uncovered kind" true
    (Ucoverage.kind_first_hit u Cpu.Store_bypass = None);
  check bool "rate per 1k" true
    (abs_float (Ucoverage.rate_per_1k u ~test_cases:100 -. 30.) < 1e-9);
  (* JSON round-trip is exact. *)
  (match Ucoverage.of_json (Ucoverage.to_json u) with
  | Ok u' ->
      check bool "json round-trip equal" true (Ucoverage.equal u u');
      check string "json round-trip fingerprint" (atlas_fingerprint u)
        (atlas_fingerprint u')
  | Error e -> Alcotest.fail e);
  (* Copy is independent. *)
  let c = Ucoverage.copy u in
  Ucoverage.register u ~tc:11 [ Ucoverage.Depth 3 ];
  check int "copy unaffected" 3 (Ucoverage.distinct c);
  check int "original advanced" 4 (Ucoverage.distinct u)

let test_collection_switch () =
  let u = Ucoverage.create () in
  Ucoverage.set_enabled false;
  Fun.protect ~finally:(fun () -> Ucoverage.set_enabled true) @@ fun () ->
  Ucoverage.register u ~tc:1 [ Ucoverage.Depth 1 ];
  check int "register is a no-op when off" 0 (Ucoverage.distinct u)

(* --- campaign integration ----------------------------------------------- *)

(* target5 vs CT-COND: branch mispredictions fire constantly but the
   contract exposes them, so short campaigns stay compliant — a
   non-empty atlas with no violation. *)
let campaign_cfg ?(domains = 1) ~seed () =
  let cfg = Target.fuzzer_config ~seed Contract.ct_cond Target.target5 in
  { cfg with Fuzzer.executor_domains = domains }

let run_with_atlas ?domains ~seed ~total () =
  let u = Ucoverage.create () in
  let o, s =
    Fuzzer.fuzz ~ucoverage:u
      (campaign_cfg ?domains ~seed ())
      ~budget:(Fuzzer.Test_cases total)
  in
  (outcome_summary o, stats_fingerprint s, u)

let test_atlas_nonempty () =
  let o, _, u = run_with_atlas ~seed:7L ~total:40 () in
  check string "compliant campaign" "none" o;
  check bool "atlas covered something" true (Ucoverage.distinct u > 0);
  check bool "branch mechanism covered" true
    (Ucoverage.kind_first_hit u Cpu.Branch_mispredict <> None);
  (* The frontier curve is strictly monotone in both coordinates. *)
  let rec mono = function
    | (t1, n1) :: ((t2, n2) :: _ as rest) ->
        t1 < t2 && n1 < n2 && mono rest
    | _ -> true
  in
  check bool "frontier monotone" true (mono (Ucoverage.frontier u))

let test_atlas_domains_invariant () =
  let base = run_with_atlas ~seed:3L ~total:40 () in
  List.iter
    (fun domains ->
      let o, s, u = run_with_atlas ~domains ~seed:3L ~total:40 () in
      let l = Printf.sprintf "domains=%d" domains in
      let bo, bs, bu = base in
      check string (l ^ ": outcome") bo o;
      check string (l ^ ": stats") bs s;
      check string (l ^ ": atlas") (atlas_fingerprint bu) (atlas_fingerprint u))
    [ 2; 4 ]

let test_atlas_kill_and_resume () =
  let cfg = campaign_cfg ~seed:5L () in
  let _, _, base_u = run_with_atlas ~seed:5L ~total:60 () in
  (* Segment 1: stop at 30 test cases; the final boundary checkpoint is
     always emitted. Route it through the Campaign codec like the CLI
     does, so the atlas section's serialization is on the tested path. *)
  let last = ref None in
  let _ =
    Fuzzer.fuzz
      ~on_checkpoint:(fun s -> last := Some s)
      cfg ~budget:(Fuzzer.Test_cases 30)
  in
  let snap =
    match !last with
    | None -> Alcotest.fail "no checkpoint emitted"
    | Some s -> (
        match Campaign.of_json cfg (Campaign.to_json cfg s) with
        | Ok s' -> s'
        | Error e -> Alcotest.fail e)
  in
  check bool "checkpoint atlas non-empty" true
    (Ucoverage.distinct snap.Fuzzer.sn_ucoverage > 0);
  let u2 = Ucoverage.create () in
  let _ =
    Fuzzer.fuzz ~resume:snap ~ucoverage:u2 cfg
      ~budget:(Fuzzer.Test_cases 60)
  in
  check string "resumed atlas bit-identical" (atlas_fingerprint base_u)
    (atlas_fingerprint u2)

let test_outcomes_invariant_without_collection () =
  let on_o, on_s, _ = run_with_atlas ~seed:9L ~total:40 () in
  Ucoverage.set_enabled false;
  let off_o, off_s, off_u =
    Fun.protect
      ~finally:(fun () -> Ucoverage.set_enabled true)
      (fun () -> run_with_atlas ~seed:9L ~total:40 ())
  in
  check string "outcome identical with collection off" on_o off_o;
  check string "stats identical with collection off" on_s off_s;
  check int "atlas empty with collection off" 0 (Ucoverage.distinct off_u);
  (* And across domain counts with collection off. *)
  Ucoverage.set_enabled false;
  let off4_o, off4_s, _ =
    Fun.protect
      ~finally:(fun () -> Ucoverage.set_enabled true)
      (fun () -> run_with_atlas ~domains:4 ~seed:9L ~total:40 ())
  in
  check string "outcome identical off, 4 domains" on_o off4_o;
  check string "stats identical off, 4 domains" on_s off4_s

let test_old_checkpoint_loads () =
  (* A checkpoint without the atlas section (pre-PR9) still loads, with
     an empty atlas. *)
  let cfg = campaign_cfg ~seed:5L () in
  let last = ref None in
  let _ =
    Fuzzer.fuzz
      ~on_checkpoint:(fun s -> last := Some s)
      cfg ~budget:(Fuzzer.Test_cases 10)
  in
  let snap = Option.get !last in
  let stripped =
    match Campaign.to_json cfg snap with
    | Json.Obj kvs ->
        Json.Obj (List.filter (fun (k, _) -> k <> "ucoverage") kvs)
    | j -> j
  in
  match Campaign.of_json cfg stripped with
  | Ok s ->
      check int "stripped checkpoint loads with empty atlas" 0
        (Ucoverage.distinct s.Fuzzer.sn_ucoverage)
  | Error e -> Alcotest.fail e

(* --- persistence + telemetry -------------------------------------------- *)

let test_stats_file_roundtrip () =
  let _, _, u = run_with_atlas ~seed:7L ~total:30 () in
  let path = Filename.temp_file "revizor-ucov" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Results.save_stats ~ucoverage:u ~path ();
  match Results.load_stats path with
  | Error e -> Alcotest.fail e
  | Ok { Results.ucoverage = Some u'; _ } ->
      check string "stats.json atlas round-trip" (atlas_fingerprint u)
        (atlas_fingerprint u')
  | Ok { Results.ucoverage = None; _ } ->
      Alcotest.fail "atlas missing from stats.json"

let test_frontier_telemetry_and_heartbeat () =
  let buf = Buffer.create 16384 in
  Telemetry.enable_buffer buf;
  let _ =
    Fuzzer.fuzz ~heartbeat_every:10
      (campaign_cfg ~seed:7L ())
      ~budget:(Fuzzer.Test_cases 30)
  in
  Telemetry.disable ();
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter_map (fun l ->
           if String.trim l = "" then None
           else Result.to_option (Telemetry.parse_line l))
  in
  let named n =
    List.filter (fun (l : Telemetry.line) -> l.Telemetry.l_name = n) lines
  in
  check bool "coverage.frontier events emitted" true
    (named "coverage.frontier" <> []);
  let beat = List.hd (named "fuzz.heartbeat") in
  check bool "heartbeat has ucov_features" true
    (List.mem_assoc "ucov_features" beat.Telemetry.l_fields);
  check bool "heartbeat has ucov_per_1k_tc" true
    (List.mem_assoc "ucov_per_1k_tc" beat.Telemetry.l_fields)

let test_saturation_event () =
  (* Drive note_round directly: three barren rounds emit exactly one
     saturation event, re-armed by a frontier advance. *)
  let buf = Buffer.create 1024 in
  Telemetry.enable_buffer buf;
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  let u = Ucoverage.create () in
  Ucoverage.register u ~tc:1 [ Ucoverage.Depth 1 ];
  for r = 1 to 5 do
    Ucoverage.note_round u ~round:r
  done;
  let count () =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l ->
           match Telemetry.parse_line l with
           | Ok p -> p.Telemetry.l_name = "coverage.saturation"
           | Error _ -> false)
    |> List.length
  in
  (* rounds 1..3 barren -> one event at round 4 (first round >= window
     after last advance at round 1's distinct snapshot); not re-emitted. *)
  check int "one saturation event" 1 (count ());
  (* A frontier advance re-arms the detector. *)
  Ucoverage.register u ~tc:200 [ Ucoverage.Depth 2 ];
  for r = 6 to 10 do
    Ucoverage.note_round u ~round:r
  done;
  check int "re-armed after advance" 2 (count ())

let () =
  Alcotest.run "ucoverage"
    [
      ( "features",
        [
          tc "string round-trip" `Quick test_feature_string_roundtrip;
          tc "harvest from runs" `Quick test_features_of_runs;
          tc "origin classification" `Quick test_origin_classification;
        ] );
      ( "accumulator",
        [
          tc "register + json round-trip" `Quick test_register_and_roundtrip;
          tc "collection switch" `Quick test_collection_switch;
          tc "saturation analytics" `Quick test_saturation_event;
        ] );
      ( "campaign",
        [
          tc "atlas non-empty and monotone" `Quick test_atlas_nonempty;
          tc "bit-identical across executor domains" `Slow
            test_atlas_domains_invariant;
          tc "kill-and-resume reproduces atlas" `Slow
            test_atlas_kill_and_resume;
          tc "outcomes invariant without collection" `Slow
            test_outcomes_invariant_without_collection;
          tc "pre-atlas checkpoints load" `Quick test_old_checkpoint_loads;
        ] );
      ( "persistence",
        [
          tc "stats.json round-trip" `Quick test_stats_file_roundtrip;
          tc "frontier + heartbeat telemetry" `Quick
            test_frontier_telemetry_and_heartbeat;
        ] );
    ]
