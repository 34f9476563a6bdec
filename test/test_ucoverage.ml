(* Microarchitectural coverage atlas (PR 9): feature codecs, harvesting
   from synthetic event records, JSON/checkpoint round-trips, atlas
   determinism across executor-pool sizes, kill-and-resume bit-identity,
   and outcomes that do not depend on the atlas a campaign starts from. *)

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

(* The atlas harvests the executor's measurements; one measured input
   per element of [runs_per_input], each repetition's event record as
   given. *)
let harvest ~descs runs_per_input =
  Ucoverage.features_of_measurements ~descs
    (Array.of_list
       (List.map
          (fun runs ->
            { Executor.htrace = Htrace.empty; kinds = []; events = []; runs })
          runs_per_input))

let atlas_fingerprint u = Json.to_string (Ucoverage.to_json u)

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

let test_harvest () =
  (* With no descriptors every origin degrades to O_other. *)
  let descs = [||] in
  let run =
    [
      ev ~loads:1 ~sets:[ 3 ] ();
      ev ~kind:Cpu.Store_bypass ~loads:4 ~sets:[ 1; 2; 5 ] ();
    ]
  in
  let fs = harvest ~descs [ [ run ] ] in
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
    (List.length (harvest ~descs [ [ []; [] ]; [] ]));
  (* Identical runs dedupe, within an input and across inputs. *)
  check bool "sorted unique" true (harvest ~descs [ [ run; run ] ] = fs);
  check bool "unique across inputs" true
    (harvest ~descs [ [ run ]; [ []; run ] ] = fs)

(* The harvest and [Executor.measure]'s [events]/[kinds] skip a run
   physically equal to the run before it (a memo replay returns the
   recorded run's own list). Copying every run list defeats that
   shortcut; the features must not change, and [events] and [kinds]
   must be what the plain polymorphic sort of every run's episodes
   gives. Real Target 5 x CT-COND measurements, whose memo replays share
   lists. *)
let events_of_copied (runs : Cpu.event list list) =
  let evs =
    List.sort_uniq Stdlib.compare
      (List.concat_map
         (List.map (fun (e : Cpu.event) ->
              (e.Cpu.kind, Htrace.of_list e.Cpu.touched_sets)))
         runs)
  in
  (evs, List.sort_uniq Stdlib.compare (List.map fst evs))

let test_harvest_copied_runs () =
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_cond Target.target5 in
  let gen = Generator.grow (Generator.grow cfg.Fuzzer.gen_cfg) in
  let prng = Prng.create ~seed:51L in
  let ex =
    Executor.create (Cpu.create cfg.Fuzzer.uarch) cfg.Fuzzer.executor
  in
  let shared = ref 0 and with_events = ref 0 in
  for _ = 1 to 12 do
    let flat = Revizor_emu.Compiled.of_program_exn (Generator.generate prng gen) in
    let inputs =
      Input.generate_many prng ~entropy:cfg.Fuzzer.entropy ~n:16
    in
    let ms = Executor.measure ex flat inputs in
    Array.iter
      (fun (m : Executor.measurement) ->
        match m.Executor.runs with
        | (_ :: _ as r) :: r' :: _ when r == r' -> incr shared
        | _ -> ())
      ms;
    let copied =
      Array.map
        (fun (m : Executor.measurement) ->
          { m with Executor.runs = List.map (List.map Fun.id) m.Executor.runs })
        ms
    in
    let descs = flat.Revizor_emu.Compiled.descs in
    check bool "same features" true
      (Ucoverage.features_of_measurements ~descs ms
      = Ucoverage.features_of_measurements ~descs copied);
    Array.iter
      (fun (m : Executor.measurement) ->
        let evs, ks = events_of_copied m.Executor.runs in
        if evs <> [] then incr with_events;
        check bool "same events" true (m.Executor.events = evs);
        check bool "same kinds" true (m.Executor.kinds = ks))
      copied
  done;
  check bool "some measurement repeats a non-empty run list" true (!shared > 0);
  check bool "some measurement holds events" true (!with_events > 0)

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
      harvest ~descs [ [ [ ev ~pc ~loads:1 () ] ] ]
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

(* Atlas states no campaign reaches are refused by the decoder, which is
   the only check [revizor coverage report] relies on. *)
let test_unreachable_atlases_refused () =
  let u = Ucoverage.create () in
  Ucoverage.register u ~tc:3 [ Ucoverage.Depth 1 ];
  Ucoverage.register u ~tc:9 [ Ucoverage.Depth 2 ];
  let set key f =
    match Ucoverage.to_json u with
    | Json.Obj kvs ->
        Json.Obj (List.map (fun (k, v) -> (k, if k = key then f v else v)) kvs)
    | _ -> Alcotest.fail "atlas is not an object"
  in
  (match Ucoverage.of_json (Ucoverage.to_json u) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "own atlas refused: %s" e);
  List.iter
    (fun (what, j) ->
      match Ucoverage.of_json j with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error _ -> ())
    [
      ( "a first hit of -1",
        set "features" (function
          | Json.Obj ((k, _) :: rest) -> Json.Obj ((k, Json.Int (-1)) :: rest)
          | v -> v) );
      ( "a frontier point (2^40, 1) before smaller test cases",
        set "frontier" (function
          | Json.List points ->
              Json.List (Json.List [ Json.Int (1 lsl 40); Json.Int 1 ] :: points)
          | v -> v) );
      ("negative barren_rounds", set "barren_rounds" (fun _ -> Json.Int (-1)));
      ( "negative last_round_distinct",
        set "last_round_distinct" (fun _ -> Json.Int (-1)) );
    ]

(* --- campaign integration ----------------------------------------------- *)

(* target5 vs CT-COND: branch mispredictions fire constantly but the
   contract exposes them, so short campaigns stay compliant — a
   non-empty atlas with no violation. *)
let campaign_cfg ?(domains = 1) ~seed () =
  let cfg = Target.fuzzer_config ~seed Contract.ct_cond Target.target5 in
  { cfg with Fuzzer.executor_domains = domains }

let run_with_atlas ?domains ?(atlas = Ucoverage.create ()) ~seed ~total () =
  let o, s =
    Fuzzer.fuzz ~ucoverage:atlas
      (campaign_cfg ?domains ~seed ())
      ~budget:(Fuzzer.Test_cases total)
  in
  (Support.outcome_fingerprint o, Support.stats_fingerprint s, atlas)

let test_atlas_nonempty () =
  let o, _, u = run_with_atlas ~seed:7L ~total:40 () in
  check string "compliant campaign" "no-violation" o;
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

(* The atlas feeds nothing back: a campaign that starts from a copy of
   another campaign's atlas ends as one that starts from an empty atlas,
   at one domain and at four. *)
let test_outcomes_invariant_to_starting_atlas () =
  let _, _, donor = run_with_atlas ~seed:7L ~total:40 () in
  check bool "donor atlas non-empty" true (Ucoverage.distinct donor > 0);
  let base_o, base_s, _ = run_with_atlas ~seed:9L ~total:40 () in
  List.iter
    (fun domains ->
      let l = Printf.sprintf "domains=%d" domains in
      let empty_o, empty_s, _ = run_with_atlas ~domains ~seed:9L ~total:40 () in
      let o, s, u =
        run_with_atlas ~domains ~atlas:(Ucoverage.copy donor) ~seed:9L
          ~total:40 ()
      in
      check string (l ^ ": outcome, empty atlas") base_o empty_o;
      check string (l ^ ": stats, empty atlas") base_s empty_s;
      check string (l ^ ": outcome, copied atlas") base_o o;
      check string (l ^ ": stats, copied atlas") base_s s;
      check bool (l ^ ": copied atlas kept its features") true
        (Ucoverage.distinct u >= Ucoverage.distinct donor))
    [ 1; 4 ]

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

(* A checkpoint whose atlas has a first hit later than the checkpoint's
   own test-case count is a state the campaign cannot reach. *)
let test_checkpoint_future_first_hit_refused () =
  let cfg = campaign_cfg ~seed:5L () in
  let last = ref None in
  let _ =
    Fuzzer.fuzz
      ~on_checkpoint:(fun s -> last := Some s)
      cfg ~budget:(Fuzzer.Test_cases 10)
  in
  let snap = Option.get !last in
  let tcs = snap.Fuzzer.sn_stats.Fuzzer.test_cases in
  let u = Ucoverage.copy snap.Fuzzer.sn_ucoverage in
  Ucoverage.register u ~tc:(tcs + 1) [ Ucoverage.Depth 99 ];
  (match Campaign.of_json cfg (Campaign.to_json cfg snap) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "own checkpoint refused: %s" e);
  match
    Campaign.of_json cfg
      (Campaign.to_json cfg { snap with Fuzzer.sn_ucoverage = u })
  with
  | Ok _ -> Alcotest.fail "first hit after the last test case accepted"
  | Error _ -> ()

(* --- persistence + telemetry -------------------------------------------- *)

let test_stats_file_roundtrip () =
  let _, _, u = run_with_atlas ~seed:7L ~total:30 () in
  let path = Filename.temp_file "revizor-ucov" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Results.save_stats ~stats:(Fuzzer.fresh_stats ()) ~ucoverage:u ~path;
  (match Results.load_stats path with
  | Error e -> Alcotest.fail e
  | Ok { Results.ucoverage = Some u'; _ } ->
      check string "stats.json atlas round-trip" (atlas_fingerprint u)
        (atlas_fingerprint u')
  | Ok { Results.ucoverage = None; _ } ->
      Alcotest.fail "atlas missing from stats.json");
  (* Older writers could leave the atlas out and write [null] stats. *)
  match
    Result.bind
      (Json.parse (In_channel.with_open_bin path In_channel.input_all))
      (function
        | Json.Obj kvs ->
            Results.stats_of_json
              (Json.Obj
                 (List.filter_map
                    (function
                      | "ucoverage", _ -> None
                      | "stats", _ -> Some ("stats", Json.Null)
                      | kv -> Some kv)
                    kvs))
        | _ -> Error "not an object")
  with
  | Ok { Results.stats = None; ucoverage = None; _ } -> ()
  | Ok _ -> Alcotest.fail "older stats.json decoded with sections it lacks"
  | Error e -> Alcotest.failf "older stats.json refused: %s" e

let test_frontier_telemetry_and_heartbeat () =
  let buf = Buffer.create 16384 in
  Telemetry.enable_buffer buf;
  let _ =
    Fuzzer.fuzz (campaign_cfg ~seed:7L ()) ~budget:(Fuzzer.Test_cases 50)
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
          tc "harvest from runs" `Quick test_harvest;
          tc "origin classification" `Quick test_origin_classification;
          tc "copied run lists give the same features and events" `Quick
            test_harvest_copied_runs;
        ] );
      ( "accumulator",
        [
          tc "register + json round-trip" `Quick test_register_and_roundtrip;
          tc "unreachable atlases refused" `Quick
            test_unreachable_atlases_refused;
          tc "saturation analytics" `Quick test_saturation_event;
        ] );
      ( "campaign",
        [
          tc "atlas non-empty and monotone" `Quick test_atlas_nonempty;
          tc "bit-identical across executor domains" `Slow
            test_atlas_domains_invariant;
          tc "kill-and-resume reproduces atlas" `Slow
            test_atlas_kill_and_resume;
          tc "outcomes invariant to a copied atlas" `Slow
            test_outcomes_invariant_to_starting_atlas;
          tc "pre-atlas checkpoints load" `Quick test_old_checkpoint_loads;
          tc "checkpoint first hit past its test cases refused" `Quick
            test_checkpoint_future_first_hit_refused;
        ] );
      ( "persistence",
        [
          tc "stats.json round-trip" `Quick test_stats_file_roundtrip;
          tc "frontier + heartbeat telemetry" `Quick
            test_frontier_telemetry_and_heartbeat;
        ] );
    ]
