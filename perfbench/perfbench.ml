(* The campaign benchmark's workload program (see README.md).

   run.py starts one fresh process per unit of work and reads the JSON
   object each prints as its last line of standard output:

     perfbench.exe run   --workload W --seed N --unit K --budget B ...
     perfbench.exe trace --workload W --seed N --units U --budget B ...

   [run] executes campaigns exactly as [revizor fuzz] / [revizor fleet
   run] do, untraced, and reports wall, CPU, set-up and memory figures
   plus every campaign's outcome. [trace] re-runs the same campaigns,
   captures their test-case stream from the loop's own boundary
   snapshots, and replays it through each layer's public functions with
   spans recorded from this file. Nothing here changes the program. *)

open Revizor
open Revizor_isa
open Revizor_uarch
module Json = Revizor_obs.Json
module Metrics = Revizor_obs.Metrics
module Telemetry = Revizor_obs.Telemetry
module Clock = Revizor_obs.Clock
module TA = Revizor_obs.Trace_analysis
module Ledger = Revizor_fleet.Ledger
module Worker = Revizor_fleet.Worker
module Merge = Revizor_fleet.Merge
module Orchestrator = Revizor_fleet.Orchestrator

(* ---- arguments ---------------------------------------------------------- *)

let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else ""

let args =
  let tbl = Hashtbl.create 16 in
  let rec go i =
    if i < Array.length Sys.argv then begin
      let key = Sys.argv.(i) in
      if String.length key > 2 && String.sub key 0 2 = "--" then
        let k = String.sub key 2 (String.length key - 2) in
        if i + 1 < Array.length Sys.argv
           && not (String.starts_with ~prefix:"--" Sys.argv.(i + 1))
        then begin
          Hashtbl.replace tbl k Sys.argv.(i + 1);
          go (i + 2)
        end
        else begin
          Hashtbl.replace tbl k "";
          go (i + 1)
        end
      else failwith (Printf.sprintf "unexpected argument %S" key)
    end
  in
  go 2;
  tbl

let arg k =
  match Hashtbl.find_opt args k with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing --%s" k)

let arg_int k = int_of_string (arg k)
let flag k = Hashtbl.mem args k

(* The start of this process on CLOCK_MONOTONIC, as recorded by run.py
   just before it spawned us; set-up time is measured from there. *)
let spawn_ns =
  match Hashtbl.find_opt args "spawn-ns" with
  | Some v -> int_of_string v
  | None -> Clock.now_ns ()

let since_spawn_s () = float_of_int (Clock.now_ns () - spawn_ns) /. 1e9

(* User+sys CPU of this process and every child it has reaped. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              let v = String.trim v in
              let kb = String.sub v 0 (String.index v ' ') in
              float_of_string kb /. 1024.
          | _ -> acc)
        0.
        (String.split_on_char '\n' text)

(* ---- workloads -------------------------------------------------------- *)

type campaign = {
  index : int;  (** position in the workload's campaign list *)
  name : string;
  expect : string option;  (** the cell's leak label; [None] = compliant *)
  seed : int64;
  budget : int;
  make : unit -> Fuzzer.config;
}

(* Experiments.table4's seed rule: run r of a cell uses seed + r * 7919. *)
let seed_rule base r = Int64.add base (Int64.of_int (r * 7919))

let sky ~v4 subsets ~assist =
  {
    Target.name = "custom";
    uarch = Uarch_config.skylake ~v4_patch:v4;
    subsets;
    threat = (if assist then Attack.prime_probe_assist else Attack.prime_probe);
    mem_pages = (if assist then 2 else 1);
  }

let coffee subsets =
  {
    Target.name = "custom";
    uarch = Uarch_config.coffee_lake;
    subsets;
    threat = Attack.prime_probe_assist;
    mem_pages = 2;
  }

let ar_mem = [ Catalog.AR; Catalog.MEM ]
let ar_mem_cb = [ Catalog.AR; Catalog.MEM; Catalog.CB ]

(* The ten cells of Table 4 — the targets and contracts of
   Experiments.table4: (permitted leak, leak to find, contract, target). *)
let table4_cells =
  [
    ("None", "V4", Contract.ct_seq, Target.target2);
    ("None", "V1", Contract.ct_seq, Target.target5);
    ("None", "MDS", Contract.ct_seq, Target.target7);
    ("None", "LVI", Contract.ct_seq, Target.target8);
    ("V4", "V1", Contract.ct_bpas, sky ~v4:false ar_mem_cb ~assist:false);
    ("V4", "MDS", Contract.ct_bpas, sky ~v4:false ar_mem ~assist:true);
    ("V4", "LVI", Contract.ct_bpas, coffee ar_mem);
    ("V1", "V4", Contract.ct_cond, sky ~v4:false ar_mem_cb ~assist:false);
    ("V1", "MDS", Contract.ct_cond, sky ~v4:true ar_mem_cb ~assist:true);
    ("V1", "LVI", Contract.ct_cond, coffee ar_mem_cb);
  ]

let expected_label = function "LVI" -> "LVI-Null" | column -> column
let base_seed () = Int64.of_int (arg_int "seed")

let compliant name contract target ~seed ~budget =
  {
    index = 0;
    name;
    expect = None;
    seed;
    budget;
    make = (fun () -> Target.fuzzer_config ~seed contract target);
  }

(* Compliant workloads: unit k runs one campaign on the k-th derived seed. *)
let compliant_campaign workload ~unit ~budget =
  let seed = seed_rule (base_seed ()) (unit + 1) in
  match workload with
  | "compliant-arch" ->
      compliant "Target 1 x CT-SEQ" Contract.ct_seq Target.target1 ~seed ~budget
  | "compliant-spec" ->
      compliant "Target 5 x CT-COND" Contract.ct_cond Target.target5 ~seed ~budget
  | w -> failwith ("not a compliant workload: " ^ w)

(* detect-table4: every cell x runs 1..R, row-major over runs. *)
let table4_campaigns ~runs ~budget =
  List.concat_map
    (fun r ->
      List.map
        (fun (row, column, contract, target) ->
          let seed = seed_rule (base_seed ()) r in
          {
            index = 0;
            name = Printf.sprintf "%s/%s" row column;
            expect = Some (expected_label column);
            seed;
            budget;
            make = (fun () -> Target.fuzzer_config ~seed contract target);
          })
        table4_cells)
    (List.init runs (fun i -> i + 1))

(* fleet: unit k shards Target 1 x CT-SEQ over its own derived seeds. *)
let fleet_spec ~unit ~shards ~budget =
  let seeds =
    List.init shards (fun i -> seed_rule (base_seed ()) ((unit * shards) + i + 1))
  in
  let workers = max 1 (min shards (Domain.recommended_domain_count ())) in
  {
    (Ledger.default_spec ~target:"Target 1" ~contract:"CT-SEQ" ~seeds) with
    Ledger.sp_budget = budget;
    sp_workers = workers;
  }

let shard_campaigns spec =
  List.map
    (fun seed ->
      {
        index = 0;
        name = "Target 1 x CT-SEQ shard";
        expect = None;
        seed;
        budget = spec.Ledger.sp_budget;
        make =
          (fun () ->
            match Worker.config_of_spec spec ~seed with
            | Ok cfg -> cfg
            | Error e -> failwith e);
      })
    spec.Ledger.sp_seeds

(* ---- shared helpers --------------------------------------------------- *)

let stats_json (s : Fuzzer.stats) =
  match Fuzzer.stats_to_json s with
  | Json.Obj kvs -> Json.Obj (List.remove_assoc "elapsed_s" kvs)
  | j -> j

let label_of_outcome = function
  | Fuzzer.Violation v -> Some v.Violation.label
  | Fuzzer.No_violation -> None

let opt_string = function Some s -> Json.String s | None -> Json.Null

(* Output check: a counterexample must still be one, with the same label,
   when its test case is re-checked on a fresh CPU and executor. *)
let reverifies cfg (v : Violation.t) =
  let executor = Executor.create (Cpu.create cfg.Fuzzer.uarch) cfg.Fuzzer.executor in
  match Fuzzer.check_test_case cfg executor v.Violation.program v.Violation.inputs with
  | Ok (Some v') -> v'.Violation.label = v.Violation.label
  | Ok None | Error _ -> false

let emit fields = print_endline (Json.to_string (Json.Obj fields))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* ---- timed mode ------------------------------------------------------- *)

(* One campaign, untraced, as [revizor fuzz] runs it, with its CPU time. *)
let run_campaign ?on_progress c =
  let cfg = c.make () in
  let c0 = cpu_s () in
  let outcome, stats = Fuzzer.fuzz ?on_progress cfg ~budget:(Fuzzer.Test_cases c.budget) in
  (c, cfg, outcome, stats, cpu_s () -. c0)

(* Run campaigns back to back in this process; the set-up time is the
   wall time from process start to the first committed test case. *)
let run_campaigns campaigns =
  let setup = ref None in
  let on_progress _ = if !setup = None then setup := Some (since_spawn_s ()) in
  let results = List.map (run_campaign ~on_progress) campaigns in
  let wall = since_spawn_s () and cpu = cpu_s () in
  let campaign_json (c, cfg, outcome, (stats : Fuzzer.stats), cpu) =
    Json.Obj
      [
        ("index", Json.Int c.index);
        ("name", Json.String c.name);
        ("seed", Json.String (Int64.to_string c.seed));
        ("expect", opt_string c.expect);
        ("budget", Json.Int c.budget);
        ("tc", Json.Int stats.Fuzzer.test_cases);
        ("cpu_s", Json.Float cpu);
        ("label", opt_string (label_of_outcome outcome));
        ( "verified",
          match outcome with
          | Fuzzer.Violation v -> Json.Bool (reverifies cfg v)
          | Fuzzer.No_violation -> Json.Null );
        ("stats", stats_json stats);
      ]
  in
  let tc =
    List.fold_left (fun a (_, _, _, (s : Fuzzer.stats), _) -> a + s.Fuzzer.test_cases) 0 results
  in
  emit
    [
      ( "setup_s",
        match !setup with Some s -> Json.Float s | None -> Json.Null );
      ("wall_s", Json.Float wall);
      ("cpu_s", Json.Float cpu);
      ("rss_mb", Json.Float (peak_rss_mb ()));
      ("tc", Json.Int tc);
      ("campaigns", Json.List (List.map campaign_json results));
    ]

(* One fleet: Orchestrator.run over the unit's shards, with worker
   processes forked by the orchestrator (this process). CPU includes the
   reaped workers. A probe fleet stops (killing and reaping its workers)
   once run.py creates [stop_file], i.e. after its first test case. *)
let run_fleet ?stop_file ~dir spec =
  rm_rf dir;
  let should_stop () =
    match stop_file with Some f -> Sys.file_exists f | None -> false
  in
  match Orchestrator.run ~dir ~should_stop spec with
  | Error e -> failwith e
  | Ok Orchestrator.Interrupted when stop_file <> None -> emit [ ("probe", Json.Bool true) ]
  | Ok Orchestrator.Interrupted -> failwith "fleet interrupted"
  | Ok Orchestrator.Completed ->
      let wall = since_spawn_s () and cpu = cpu_s () in
      let ledger =
        match Ledger.load ~dir with Ok l -> l | Error e -> failwith e
      in
      let merged =
        match Merge.load ~dir ~spec with Ok m -> m | Error e -> failwith e
      in
      let count p = Array.fold_left (fun n sh -> if p sh then n + 1 else n) 0 ledger.Ledger.shards in
      let stats = Merge.stats merged in
      emit
        [
          ("wall_s", Json.Float wall);
          ("cpu_s", Json.Float cpu);
          ("rss_mb", Json.Float (peak_rss_mb ()));
          ("tc", Json.Int stats.Fuzzer.test_cases);
          ("shards", Json.Int (Array.length ledger.Ledger.shards));
          ( "quarantined",
            Json.Int (count (fun sh -> sh.Ledger.sh_state = Ledger.Quarantined)) );
          ("readopted", Json.Int (count (fun sh -> sh.Ledger.sh_attempts > 0)));
          ("violations", Json.Int (List.length (Merge.violations merged)));
          ("stats", stats_json stats);
          ( "merged_md5",
            Json.String (Digest.to_hex (Digest.string (read_file (Ledger.merged_path dir)))) );
        ]

let timed workload =
  let budget = arg_int "budget" in
  let probe = flag "probe" in
  let first_only cs =
    if probe then match cs with c :: _ -> [ { c with budget = 1 } ] | [] -> [] else cs
  in
  match workload with
  | "compliant-arch" | "compliant-spec" ->
      run_campaigns (first_only [ compliant_campaign workload ~unit:(arg_int "unit") ~budget ])
  | "detect-table4" ->
      let slice = arg_int "slice" and slices = arg_int "slices" in
      table4_campaigns ~runs:(arg_int "runs") ~budget
      |> List.mapi (fun i c -> { c with index = i })
      |> List.filteri (fun i _ -> i mod slices = slice)
      |> first_only |> run_campaigns
  | "fleet" ->
      let stop_file = if probe then Some (arg "stop-file") else None in
      run_fleet ?stop_file ~dir:(arg "dir")
        (fleet_spec ~unit:(arg_int "unit") ~shards:(arg_int "shards") ~budget)
  | w -> failwith ("unknown workload " ^ w)

(* ---- traced replay ---------------------------------------------------- *)

(* Spans go to the in-memory telemetry buffer, in the program's JSONL
   span format; the test-case id comes from the sink's context. *)
let span name f =
  let t0 = Clock.now_ns () in
  Fun.protect ~finally:(fun () -> Telemetry.span name ~start_ns:t0 ~dur_ns:(Clock.now_ns () - t0)) f

(* Work counts the replay observes at the layer boundaries. *)
type counts = {
  mutable tcs : int;
  mutable inputs : int;
  mutable insts : int;
  mutable fills : int;
  mutable full_fills : int;
  mutable fill_inputs : int;
  mutable fill_words : int;
  mutable model_inputs : int;
  mutable exec_inputs : int;
  mutable effective : int;
  mutable swap_calls : int;
  mutable nesting_calls : int;
  mutable confirms : int;
  mutable features : int;
  mutable cpu_runs : int;
  mutable cpu_ns : int;
  mutable observe_ns : int;
  mutable wall_ns : int;
}

let counts =
  {
    tcs = 0; inputs = 0; insts = 0; fills = 0; full_fills = 0; fill_inputs = 0;
    fill_words = 0; model_inputs = 0; exec_inputs = 0; effective = 0;
    swap_calls = 0; nesting_calls = 0; confirms = 0; features = 0; cpu_runs = 0;
    cpu_ns = 0; observe_ns = 0; wall_ns = 0;
  }

(* Data words of a full sandbox fill (two 4 KiB pages). *)
let full_fill_words = Revizor_emu.Layout.data_pages * Revizor_emu.Layout.page_size / 8

let last_data_word =
  Int64.add Revizor_emu.Layout.sandbox_base
    (Int64.of_int ((Revizor_emu.Layout.data_pages * Revizor_emu.Layout.page_size) - 8))

(* The campaign loop's state after test case [tc]'s boundary: the PRNG
   after generating it, and the generator configuration and input count
   the next test case is generated with. *)
type boundary = { b_prng : int64; b_gen : Generator.cfg; b_n_inputs : int; b_growths : int }

let capture cfg ~budget =
  let tbl = Hashtbl.create 1024 in
  let outcome, stats =
    Fuzzer.fuzz ~checkpoint_every:1
      ~on_checkpoint:(fun sn ->
        Hashtbl.replace tbl sn.Fuzzer.sn_stats.Fuzzer.test_cases
          {
            b_prng = sn.Fuzzer.sn_prng;
            b_gen = sn.Fuzzer.sn_gen_cfg;
            b_n_inputs = sn.Fuzzer.sn_n_inputs;
            b_growths = sn.Fuzzer.sn_stats.Fuzzer.growths;
          })
      cfg ~budget:(Fuzzer.Test_cases budget)
  in
  (outcome, stats, tbl)

type checked = {
  effective : int;
  patterns : Coverage.pattern list;
  features : Ucoverage.feature list;
  candidate_seen : bool;
  dismissed_swap : bool;
  dismissed_nesting : bool;
  label : string option;
}

(* The mechanism attribution of Fuzzer's [confirm]: the mechanisms whose
   transient touches appear in the diverging observations. *)
let violation_label (cfg : Fuzzer.config) (measurements : Executor.measurement array)
    htraces (cand : Analyzer.candidate) =
  let a = htraces.(cand.Analyzer.index_a) and b = htraces.(cand.Analyzer.index_b) in
  let d = Htrace.union (Htrace.diff a b) (Htrace.diff b a) in
  let diff_sets =
    match cfg.Fuzzer.executor.Executor.threat.Attack.mode with
    | Attack.Prime_probe -> d
    | Attack.Flush_reload | Attack.Evict_reload ->
        Htrace.of_list (List.map (fun l -> l mod 64) (Htrace.elements d))
    | Attack.Port_contention -> Htrace.empty
  in
  let relevant idx =
    List.filter_map
      (fun (k, sets) ->
        if Htrace.is_empty (Htrace.inter sets diff_sets) then None else Some k)
      measurements.(idx).Executor.events
  in
  let mechanisms =
    match
      List.sort_uniq Stdlib.compare
        (relevant cand.Analyzer.index_a @ relevant cand.Analyzer.index_b)
    with
    | [] ->
        List.sort_uniq Stdlib.compare
          (measurements.(cand.Analyzer.index_a).Executor.kinds
          @ measurements.(cand.Analyzer.index_b).Executor.kinds)
    | ms -> ms
  in
  Violation.label_of cfg.Fuzzer.contract mechanisms
    ~mds_patch:cfg.Fuzzer.uarch.Uarch_config.mds_patch

(* Direct Cpu.run / Attack.observe calls on up to four inputs of a test
   case, on a CPU of their own; timed outside the test-case span. *)
let sample_cpu (cfg : Fuzzer.config) probe_cpu scratch prog templates =
  let threat = cfg.Fuzzer.executor.Executor.threat in
  for i = 0 to min 4 (Array.length templates) - 1 do
    Revizor_emu.State.copy_into templates.(i) ~dst:scratch;
    Cpu.set_fill_buffer probe_cpu
      (Revizor_emu.Memory.read templates.(i).Revizor_emu.State.mem ~addr:last_data_word
         Width.W64);
    let run_ns = ref 0 in
    let t0 = Clock.now_ns () in
    (try
       ignore
         (Attack.observe probe_cpu threat (fun () ->
              let r0 = Clock.now_ns () in
              Fun.protect
                ~finally:(fun () -> run_ns := Clock.now_ns () - r0)
                (fun () ->
                  Cpu.run ~max_steps:cfg.Fuzzer.executor.Executor.max_steps probe_cpu
                    prog scratch)))
     with Revizor_emu.Semantics.Division_fault | Revizor_emu.Memory.Fault _ -> ());
    counts.cpu_runs <- counts.cpu_runs + 1;
    counts.cpu_ns <- counts.cpu_ns + !run_ns;
    counts.observe_ns <- counts.observe_ns + (Clock.now_ns () - t0 - !run_ns)
  done

(* Fuzzer.check_test_case's pipeline, one public call per span. Returns
   the outcome and, for measured test cases, what the Cpu/Attack sample
   needs. *)
let check_tc (cfg : Fuzzer.config) executor arena program inputs =
  let n = List.length inputs in
  match
    span "bench.compiled" (fun () ->
        Result.map (Fuzzer.compile_with cfg.Fuzzer.engine) (Program.flatten program))
  with
  | Error _ -> (`Faulted, None)
  | Ok prog ->
      let flat = prog.Revizor_emu.Compiled.flat in
      counts.insts <- counts.insts + Array.length flat.Program.code;
      let plan, templates =
        span "bench.arena" (fun () ->
            let plan = Input.fill_plan flat in
            (plan, Arena.templates ?plan arena inputs))
      in
      counts.fills <- counts.fills + 1;
      counts.fill_inputs <- counts.fill_inputs + n;
      (match plan with
      | None ->
          counts.full_fills <- counts.full_fills + 1;
          counts.fill_words <- counts.fill_words + (n * full_fill_words)
      | Some p -> counts.fill_words <- counts.fill_words + (n * Array.length p));
      let results =
        span "bench.model" (fun () ->
            Model.ctraces ~watchdog:cfg.Fuzzer.watchdog ~templates ~stream:`First
              cfg.Fuzzer.contract prog inputs)
      in
      counts.model_inputs <- counts.model_inputs + n;
      if List.exists (fun (r : Model.result) -> r.Model.faulted) results then
        (`Faulted, None)
      else
        let ctraces =
          Array.of_list (List.map (fun (r : Model.result) -> r.Model.ctrace) results)
        in
        let patterns =
          span "bench.coverage" (fun () ->
              match results with
              | first :: _ -> Coverage.patterns_of_stream first.Model.stream
              | [] -> [])
        in
        let classes, effective =
          span "bench.analyzer" (fun () ->
              let classes = Analyzer.input_classes ctraces in
              (classes, Analyzer.effective_inputs classes))
        in
        let ok ?(features = []) ?(candidate_seen = false) ?(swapped = false)
            ?(nested = false) label =
          `Ok
            {
              effective;
              patterns;
              features;
              candidate_seen;
              dismissed_swap = swapped;
              dismissed_nesting = nested;
              label;
            }
        in
        if classes = [] then (ok None, None)
        else
          let measurements =
            span "bench.executor" (fun () -> Executor.measure ~templates executor prog inputs)
          in
          counts.exec_inputs <- counts.exec_inputs + n;
          let features =
            span "bench.ucoverage" (fun () ->
                if Ucoverage.enabled () then
                  Ucoverage.features_of_measurements ~descs:prog.Revizor_emu.Compiled.descs
                    measurements
                else [])
          in
          let htraces =
            Array.map (fun (m : Executor.measurement) -> m.Executor.htrace) measurements
          in
          span "bench.analyzer" (fun () -> Analyzer.record_htraces htraces);
          let nesting_holds (cand : Analyzer.candidate) =
            cfg.Fuzzer.contract.Contract.nesting
            || begin
                 counts.nesting_calls <- counts.nesting_calls + 1;
                 span "bench.nesting" (fun () ->
                     let results =
                       Model.ctraces ~watchdog:cfg.Fuzzer.watchdog ~templates ~stream:`First
                         (Contract.with_nesting cfg.Fuzzer.contract)
                         prog inputs
                     in
                     (not (List.exists (fun (r : Model.result) -> r.Model.faulted) results))
                     &&
                     let classes =
                       Analyzer.input_classes
                         (Array.of_list
                            (List.map (fun (r : Model.result) -> r.Model.ctrace) results))
                     in
                     List.exists
                       (fun cls ->
                         List.mem cand.Analyzer.index_a cls.Analyzer.members
                         && List.mem cand.Analyzer.index_b cls.Analyzer.members
                         && not
                              (Htrace.comparable htraces.(cand.Analyzer.index_a)
                                 htraces.(cand.Analyzer.index_b)))
                       classes)
               end
          in
          (* The hunt of Fuzzer.check_test_case: up to five candidates,
             each screened by the swap check and the nesting re-check. *)
          let rec hunt excluding attempts ~swapped ~nested =
            if attempts <= 0 then ok ~features ~candidate_seen:true ~swapped ~nested None
            else
              match
                span "bench.analyzer" (fun () ->
                    Analyzer.find_violation ~excluding classes htraces)
              with
              | None ->
                  ok ~features ~candidate_seen:(excluding <> []) ~swapped ~nested None
              | Some cand ->
                  let pair = (cand.Analyzer.index_a, cand.Analyzer.index_b) in
                  counts.swap_calls <- counts.swap_calls + 1;
                  if
                    not
                      (span "bench.swap_check" (fun () ->
                           Executor.swap_check ~templates ~base:htraces executor prog
                             inputs cand.Analyzer.index_a cand.Analyzer.index_b))
                  then hunt (pair :: excluding) (attempts - 1) ~swapped:true ~nested
                  else if not (nesting_holds cand) then
                    hunt (pair :: excluding) (attempts - 1) ~swapped ~nested:true
                  else begin
                    counts.confirms <- counts.confirms + 1;
                    ok ~features ~candidate_seen:true
                      (Some (violation_label cfg measurements htraces cand))
                  end
          in
          (hunt [] 5 ~swapped:false ~nested:false, Some (prog, templates))

type replayed = { rp_stats : Fuzzer.stats; rp_violation : (int * string) option }

(* Replay one campaign's test cases 1..[n_tc] with one Cpu, Executor and
   Arena, as the campaign loop does; generator configuration and input
   count come from the captured boundaries, never from a second copy of
   the growth policy. *)
let replay (cfg : Fuzzer.config) boundaries ~n_tc =
  let t_start = Clock.now_ns () in
  let executor = Executor.create (Cpu.create cfg.Fuzzer.uarch) cfg.Fuzzer.executor in
  let arena = Arena.create () in
  let probe_cpu = Cpu.create cfg.Fuzzer.uarch and scratch = Revizor_emu.State.create () in
  let prng = Prng.create ~seed:cfg.Fuzzer.seed in
  let coverage = Coverage.create () and ucov = Ucoverage.create () in
  let st =
    {
      Fuzzer.test_cases = 0; inputs_tested = 0; effective_inputs = 0;
      ineffective_test_cases = 0; faulted_test_cases = 0; skipped_pathological = 0;
      candidates = 0; dismissed_by_swap = 0; dismissed_by_nesting = 0; rounds = 0;
      growths = 0; elapsed_s = 0.;
    }
  in
  let gen_cfg = ref cfg.Fuzzer.gen_cfg and n_inputs = ref cfg.Fuzzer.n_inputs in
  let violation = ref None and prng_ok = ref true and sample_ns = ref 0 in
  while !violation = None && st.Fuzzer.test_cases < n_tc do
    let tc = st.Fuzzer.test_cases + 1 in
    st.Fuzzer.test_cases <- tc;
    Telemetry.set_context [ ("tc", Json.Int tc) ];
    Executor.set_context executor ~tc;
    let t_tc = Clock.now_ns () in
    let program = span "bench.generator" (fun () -> Generator.generate prng !gen_cfg) in
    let inputs =
      span "bench.input" (fun () ->
          Input.generate_many prng ~entropy:cfg.Fuzzer.entropy ~n:!n_inputs)
    in
    (match Hashtbl.find_opt boundaries tc with
    | Some b when b.b_prng <> Prng.state prng -> prng_ok := false
    | _ -> ());
    let n = List.length inputs in
    st.Fuzzer.inputs_tested <- st.Fuzzer.inputs_tested + n;
    counts.tcs <- counts.tcs + 1;
    counts.inputs <- counts.inputs + n;
    let outcome, sample =
      try check_tc cfg executor arena program inputs
      with Watchdog.Pathological _ -> (`Skipped, None)
    in
    (match outcome with
    | `Skipped -> st.Fuzzer.skipped_pathological <- st.Fuzzer.skipped_pathological + 1
    | `Faulted -> st.Fuzzer.faulted_test_cases <- st.Fuzzer.faulted_test_cases + 1
    | `Ok c ->
        st.Fuzzer.effective_inputs <- st.Fuzzer.effective_inputs + c.effective;
        counts.effective <- counts.effective + c.effective;
        if c.effective = 0 then
          st.Fuzzer.ineffective_test_cases <- st.Fuzzer.ineffective_test_cases + 1;
        if c.candidate_seen then st.Fuzzer.candidates <- st.Fuzzer.candidates + 1;
        if c.dismissed_swap then st.Fuzzer.dismissed_by_swap <- st.Fuzzer.dismissed_by_swap + 1;
        if c.dismissed_nesting then
          st.Fuzzer.dismissed_by_nesting <- st.Fuzzer.dismissed_by_nesting + 1;
        span "bench.coverage" (fun () ->
            Coverage.register coverage ~patterns:c.patterns ~effective:(c.effective > 0));
        span "bench.ucoverage" (fun () -> Ucoverage.register ucov ~tc c.features);
        counts.features <- counts.features + List.length c.features;
        Option.iter (fun label -> violation := Some (tc, label)) c.label);
    Telemetry.span "bench.tc" ~start_ns:t_tc ~dur_ns:(Clock.now_ns () - t_tc);
    (match sample with
    | Some (prog, templates) ->
        let s0 = Clock.now_ns () in
        sample_cpu cfg probe_cpu scratch prog templates;
        sample_ns := !sample_ns + (Clock.now_ns () - s0)
    | None -> ());
    match Hashtbl.find_opt boundaries tc with
    | Some b ->
        st.Fuzzer.growths <- b.b_growths;
        gen_cfg := b.b_gen;
        n_inputs := b.b_n_inputs
    | None -> ()
  done;
  Telemetry.set_context [];
  counts.wall_ns <- counts.wall_ns + (Clock.now_ns () - t_start - !sample_ns);
  ({ rp_stats = st; rp_violation = !violation }, !prng_ok)

(* Fidelity gate: the replay's totals against the untraced campaign's. *)
let fidelity_errors c (outcome, (stats : Fuzzer.stats)) (rp, prng_ok) =
  let s = rp.rp_stats in
  let fields =
    [
      ("test_cases", stats.Fuzzer.test_cases, s.Fuzzer.test_cases);
      ("inputs_tested", stats.Fuzzer.inputs_tested, s.Fuzzer.inputs_tested);
      ("effective_inputs", stats.Fuzzer.effective_inputs, s.Fuzzer.effective_inputs);
      ( "ineffective_test_cases",
        stats.Fuzzer.ineffective_test_cases,
        s.Fuzzer.ineffective_test_cases );
      ("faulted_test_cases", stats.Fuzzer.faulted_test_cases, s.Fuzzer.faulted_test_cases);
      ("skipped_pathological", stats.Fuzzer.skipped_pathological, s.Fuzzer.skipped_pathological);
      ("candidates", stats.Fuzzer.candidates, s.Fuzzer.candidates);
      ("dismissed_by_swap", stats.Fuzzer.dismissed_by_swap, s.Fuzzer.dismissed_by_swap);
      ("dismissed_by_nesting", stats.Fuzzer.dismissed_by_nesting, s.Fuzzer.dismissed_by_nesting);
      ("growths", stats.Fuzzer.growths, s.Fuzzer.growths);
    ]
  in
  let where = Printf.sprintf "%s seed %Ld" c.name c.seed in
  List.filter_map
    (fun (k, want, got) ->
      if want = got then None else Some (Printf.sprintf "%s: %s %d vs replay %d" where k want got))
    fields
  @ (if prng_ok then [] else [ where ^ ": generator stream diverged" ])
  @
  let want =
    match outcome with
    | Fuzzer.Violation v -> Some (stats.Fuzzer.test_cases, v.Violation.label)
    | Fuzzer.No_violation -> None
  in
  if want = rp.rp_violation then []
  else
    let show = function None -> "none" | Some (tc, l) -> Printf.sprintf "%s at tc %d" l tc in
    [ Printf.sprintf "%s: violation %s vs replay %s" where (show want) (show rp.rp_violation) ]

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* Linear-interpolated quantile, as Python's statistics.quantiles
   (method "exclusive") places the quartiles. *)
let quantile q l =
  match List.sort compare l with
  | [] -> 0.
  | [ x ] -> x
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n + 1) in
      let j = truncate pos in
      if j < 1 then a.(0)
      else if j >= n then a.(n - 1)
      else a.(j - 1) +. ((pos -. float_of_int j) *. (a.(j) -. a.(j - 1)))

(* Self time per span name: duration minus the part its children cover,
   the parent found by interval containment. *)
let self_times spans =
  let tbl = Hashtbl.create 16 in
  let rec walk (node : TA.node) =
    let children =
      List.fold_left (fun acc (ch : TA.node) -> acc + ch.TA.n_span.TA.sp_dur) 0 node.TA.n_children
    in
    let name = node.TA.n_span.TA.sp_name in
    let prev = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
    Hashtbl.replace tbl name (prev + node.TA.n_span.TA.sp_dur - children);
    List.iter walk node.TA.n_children
  in
  List.iter (fun (_, group) -> List.iter walk (TA.span_forest group)) (TA.by_domain spans);
  tbl

let total_ns spans name =
  List.fold_left (fun acc (s : TA.span) -> if s.TA.sp_name = name then acc + s.TA.sp_dur else acc) 0 spans

(* Set-up of one campaign's objects, as Fuzzer.fuzz does it. *)
let setup_ns (c : campaign) =
  let once () =
    let t0 = Clock.now_ns () in
    let cfg = c.make () in
    let executor = Executor.create (Cpu.create cfg.Fuzzer.uarch) cfg.Fuzzer.executor in
    let arena = Arena.create () in
    ignore (Sys.opaque_identity (executor, arena));
    float_of_int (Clock.now_ns () - t0)
  in
  median (List.init 5 (fun _ -> once ()))

type fleet_figures = {
  ff_ms_per_save : float;
  ff_kb_per_save : float;
  ff_fixed_cpu_ms : float;
  ff_merge_ms : float;
  ff_retries : int;
  ff_identical : bool;
}

(* fleet: Orchestrator.run against the in-process reference on the same
   spec (byte-identical merged.json expected), checkpoint costs from the
   reference's stage.checkpoint counters, and the merge timed on its own. *)
let fleet_figures ~dir spec =
  let fleet_dir = Filename.concat dir "fleet" and ref_dir = Filename.concat dir "reference" in
  rm_rf fleet_dir;
  rm_rf ref_dir;
  let c0 = cpu_s () in
  (match Orchestrator.run ~dir:fleet_dir spec with
  | Ok Orchestrator.Completed -> ()
  | Ok Orchestrator.Interrupted -> failwith "fleet interrupted"
  | Error e -> failwith e);
  let fleet_cpu = cpu_s () -. c0 in
  Metrics.reset ();
  let c1 = cpu_s () in
  (match Orchestrator.reference ~dir:ref_dir spec with Ok () -> () | Error e -> failwith e);
  let ref_cpu = cpu_s () -. c1 in
  let snap = Metrics.snapshot () in
  let counter k = Option.value ~default:0 (List.assoc_opt k snap.Metrics.counters) in
  let saves = counter "stage.checkpoint.calls" in
  let shards = List.length spec.Ledger.sp_seeds in
  let ckpt_bytes =
    List.fold_left
      (fun acc i ->
        match Unix.stat (Ledger.shard_checkpoint ref_dir i) with
        | st -> acc + st.Unix.st_size
        | exception Unix.Unix_error _ -> acc)
      0
      (List.init shards Fun.id)
  in
  let identical =
    read_file (Ledger.merged_path fleet_dir) = read_file (Ledger.merged_path ref_dir)
  in
  let retries =
    match Ledger.load ~dir:fleet_dir with
    | Ok l -> Array.fold_left (fun n sh -> n + sh.Ledger.sh_attempts) 0 l.Ledger.shards
    | Error e -> failwith e
  in
  (* The merge alone: fold the fleet's shard results into a fresh
     document and persist it after each commit, as the orchestrator does. *)
  let merge_dir = Filename.concat dir "merge" in
  rm_rf merge_dir;
  Unix.mkdir merge_dir 0o755;
  let results =
    List.init shards (fun i ->
        match Worker.load_result ~dir:fleet_dir i with Ok r -> r | Error e -> failwith e)
  in
  let merged = Merge.create ~spec in
  let m0 = Clock.now_ns () in
  List.iter
    (fun r ->
      ignore (Merge.commit merged r);
      Merge.save ~dir:merge_dir ~spec merged)
    results;
  let merge_ns = Clock.now_ns () - m0 in
  {
    ff_ms_per_save =
      float_of_int (counter "stage.checkpoint.ns") /. 1e6 /. float_of_int (max 1 saves);
    ff_kb_per_save = float_of_int ckpt_bytes /. 1024. /. float_of_int (max 1 shards);
    ff_fixed_cpu_ms = (fleet_cpu -. ref_cpu) *. 1000. /. float_of_int (max 1 shards);
    ff_merge_ms = float_of_int merge_ns /. 1e6 /. float_of_int (max 1 shards);
    ff_retries = retries;
    ff_identical = identical;
  }

let traced workload =
  let budget = arg_int "budget" and dir = arg "dir" in
  let fleet = workload = "fleet" in
  let spec () = fleet_spec ~unit:0 ~shards:(arg_int "shards") ~budget in
  let campaigns =
    match workload with
    | "compliant-arch" | "compliant-spec" ->
        List.init (arg_int "units") (fun unit -> compliant_campaign workload ~unit ~budget)
    | "detect-table4" -> table4_campaigns ~runs:(arg_int "runs") ~budget
    | "fleet" -> shard_campaigns (spec ())
    | w -> failwith ("unknown workload " ^ w)
  in
  (* Fleet first: the orchestrator forks, which OCaml 5 refuses once any
     domain has existed. *)
  let ff = if fleet then Some (fleet_figures ~dir (spec ())) else None in
  (* 1. Capture each campaign's boundary stream. This pass also grows the
     heap, so the timed untraced and traced passes below start alike. *)
  let captured = List.map (fun c -> capture (c.make ()) ~budget:c.budget) campaigns in
  (* 2. The untraced campaigns: reference totals (the capture must
     reproduce them exactly), the program's own stage breakdown, GC
     deltas and per-campaign time to verdict. *)
  Metrics.reset ();
  let gc0 = Gc.quick_stat () in
  let untraced = List.map (fun c -> run_campaign c) campaigns in
  let gc1 = Gc.quick_stat () in
  let stages = Metrics.stage_breakdown (Metrics.snapshot ()) in
  let untraced_wall =
    List.fold_left (fun a (_, _, _, (s : Fuzzer.stats), _) -> a +. s.Fuzzer.elapsed_s) 0. untraced
  in
  (* 3. Replay with spans in memory, counters from the program's Metrics. *)
  Metrics.reset ();
  let buf = Buffer.create (1 lsl 20) in
  Telemetry.enable_buffer buf;
  let errors =
    List.concat
      (List.map2
         (fun (c, cfg, outcome, (stats : Fuzzer.stats), _) (outcome', stats', boundaries) ->
           let rp = replay cfg boundaries ~n_tc:stats.Fuzzer.test_cases in
           let same =
             label_of_outcome outcome = label_of_outcome outcome'
             && stats_json stats = stats_json stats'
           in
           (if same then []
            else [ Printf.sprintf "%s seed %Ld: capture run differs from the untraced run" c.name c.seed ])
           @ fidelity_errors c (outcome, stats) rp)
         untraced captured)
  in
  Telemetry.disable ();
  let snap = Metrics.snapshot () in
  let counter k = Option.value ~default:0 (List.assoc_opt k snap.Metrics.counters) in
  let spans_file = arg "spans" in
  Out_channel.with_open_bin spans_file (fun oc -> Buffer.output_buffer oc buf);
  let lines =
    match TA.load_file spans_file with Ok (l, _) -> l | Error e -> failwith e
  in
  let spans = TA.spans_of_lines lines in
  let self = self_times spans in
  let wall = float_of_int counts.wall_ns in
  let share name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt self name)) /. wall in
  let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let tcs = counts.tcs in
  let verdict_tc =
    List.map (fun (_, _, _, (s : Fuzzer.stats), _) -> float_of_int s.Fuzzer.test_cases) untraced
  in
  let verdict_cpu = List.map (fun (_, _, _, _, cpu) -> cpu) untraced in
  let detected =
    List.length
      (List.filter
         (fun (c, _, outcome, _, _) ->
           c.expect <> None && label_of_outcome outcome = c.expect)
         untraced)
  in
  let ff_get f d = match ff with Some x -> f x | None -> d in
  let untraced_tc = List.fold_left ( +. ) 0. verdict_tc in
  let metrics =
    [
      ("generator.ns_per_tc", per (total_ns spans "bench.generator") tcs);
      ("generator.insts_per_tc", per counts.insts tcs);
      ("input.ns_per_input", per (total_ns spans "bench.input") counts.inputs);
      ("generator.share", share "bench.generator" +. share "bench.input");
      ("compiled.ns_per_tc", per (total_ns spans "bench.compiled") tcs);
      ("compiled.share", share "bench.compiled");
      ("arena.ns_per_input", per (total_ns spans "bench.arena") counts.fill_inputs);
      ("arena.words_per_input", per counts.fill_words counts.fill_inputs);
      ("arena.full_fill_share", per counts.full_fills counts.fills);
      ("arena.share", share "bench.arena");
      ("model.ns_per_input", per (total_ns spans "bench.model") counts.model_inputs);
      ("model.share", share "bench.model");
      ("analyzer.ns_per_tc", per (total_ns spans "bench.analyzer") tcs);
      ("analyzer.classes_per_tc", per (counter "analyzer.classes") tcs);
      ("analyzer.effective_ratio", per counts.effective counts.model_inputs);
      ("analyzer.share", share "bench.analyzer");
      ("executor.ns_per_input", per (total_ns spans "bench.executor") counts.exec_inputs);
      ( "executor.memo_hit_ratio",
        per (counter "executor.memo_hits")
          (counter "executor.memo_hits" + counter "executor.input_runs") );
      ("executor.share", share "bench.executor");
      ("cpu.ns_per_run", per counts.cpu_ns counts.cpu_runs);
      ("attack.ns_per_observation", per counts.observe_ns counts.cpu_runs);
      ("swap_check.calls", float_of_int counts.swap_calls);
      ("swap_check.ns_per_call", per (total_ns spans "bench.swap_check") counts.swap_calls);
      ("nesting.calls", float_of_int counts.nesting_calls);
      ("nesting.ns_per_call", per (total_ns spans "bench.nesting") counts.nesting_calls);
      ("hunt.confirm_ratio", per counts.confirms counts.swap_calls);
      ("coverage.ns_per_tc", per (total_ns spans "bench.coverage") tcs);
      ("ucoverage.ns_per_tc", per (total_ns spans "bench.ucoverage") tcs);
      ("ucoverage.features_per_tc", per counts.features tcs);
      ("coverage.share", share "bench.coverage");
      ("ucoverage.share", share "bench.ucoverage");
      ("residual.share", share "bench.tc");
      ("gc.minor_words_per_tc", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. untraced_tc);
      ( "gc.promoted_words_per_tc",
        (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. untraced_tc );
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ("setup.ns_per_campaign", median (List.map setup_ns campaigns));
      ("campaign.ms_per_save", ff_get (fun f -> f.ff_ms_per_save) 0.);
      ("campaign.kb_per_save", ff_get (fun f -> f.ff_kb_per_save) 0.);
      ("fleet.fixed_cpu_ms_per_shard", ff_get (fun f -> f.ff_fixed_cpu_ms) 0.);
      ("merge.ms_per_commit", ff_get (fun f -> f.ff_merge_ms) 0.);
      ("fleet.retries", float_of_int (ff_get (fun f -> f.ff_retries) 0));
      ("trace.overhead_s", (wall /. 1e9) -. untraced_wall);
      ("ttv_tc_p50", median verdict_tc);
      ("ttv_cpu_s_p50", median verdict_cpu);
      ("ttv_cpu_s_p75", quantile 0.75 verdict_cpu);
      ("detect_rate", per detected (List.length untraced));
    ]
  in
  emit
    [
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
      ("errors", Json.List (List.map (fun e -> Json.String e) errors));
      ( "merged_identical",
        match ff with Some f -> Json.Bool f.ff_identical | None -> Json.Null );
      ("replayed_tc", Json.Int tcs);
      ("campaigns", Json.Int (List.length campaigns));
      ("traced_wall_s", Json.Float (wall /. 1e9));
      ("untraced_wall_s", Json.Float untraced_wall);
      ( "stage_breakdown",
        Json.Obj
          (List.map
             (fun (st : Metrics.stage) ->
               (st.Metrics.st_name, Json.Float (float_of_int st.Metrics.st_total_ns /. 1e9 /. untraced_wall)))
             stages) );
      ( "layer_shares",
        Json.Obj
          (Hashtbl.fold (fun name _ acc -> name :: acc) self []
          |> List.sort compare
          |> List.map (fun name -> (name, Json.Float (share name)))) );
      ("spans", Json.Int (List.length spans));
    ]

let () =
  match mode with
  | "run" -> timed (arg "workload")
  | "trace" -> traced (arg "workload")
  | _ ->
      prerr_endline "usage: perfbench.exe (run|trace) --workload W --seed N ...";
      exit 2
