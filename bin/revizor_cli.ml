(* Command-line interface to the Revizor reproduction: fuzz targets
   against contracts, reproduce the paper's experiments, inspect gadgets
   and the instruction catalog, and minimize counterexamples. *)

open Revizor
open Cmdliner
module Metrics = Revizor_obs.Metrics
module Telemetry = Revizor_obs.Telemetry
module Json = Revizor_obs.Json

(* --- shared argument parsers --------------------------------------- *)

let contract_conv =
  let parse s =
    match Contract.of_name s with Ok c -> Ok c | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Contract.pp)

let target_conv =
  let parse s =
    let s' = if String.length s <= 2 then "target " ^ s else s in
    match Target.find s' with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "unknown target %S (use 1..8)" s))
  in
  Arg.conv (parse, Target.pp)

let contract_arg =
  Arg.(
    value
    & opt contract_conv Contract.ct_seq
    & info [ "c"; "contract" ] ~docv:"CONTRACT"
        ~doc:"Contract to test against (e.g. CT-SEQ, MEM-COND, ARCH-SEQ).")

let fault_inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-inject" ] ~docv:"SPEC"
        ~doc:
          "Arm deterministic fault injection: comma-separated \
           $(i,name:rate) with optional $(i,@after) and $(i,#max), e.g. \
           $(b,model.ctrace:0.05,writer.io:1.0@10#2). Campaign points \
           (armed in fleet workers too): $(b,model.ctrace), \
           $(b,executor.measure), $(b,writer.io). Fleet points: \
           $(b,fleet.spawn), $(b,fleet.heartbeat), $(b,fleet.merge), \
           $(b,fleet.ledger_write), $(b,fleet.worker_crash), \
           $(b,fleet.worker_hang). Off by default.")

let fault_seed_arg =
  Arg.(
    value & opt int64 42L
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed for the fault-injection schedule (with --fault-inject).")

let target_arg =
  Arg.(
    value
    & opt target_conv Target.target5
    & info [ "t"; "target" ] ~docv:"TARGET" ~doc:"Table 2 target (1..8).")

let seed_arg =
  Arg.(value & opt int64 1L & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let budget_arg =
  Arg.(
    value & opt int 1000
    & info [ "n"; "test-cases" ] ~docv:"N" ~doc:"Test-case budget.")

let inputs_arg =
  Arg.(
    value & opt int 50
    & info [ "i"; "inputs" ] ~docv:"N" ~doc:"Inputs per test case.")

(* Every command reports a failure the same way: one [revizor: ] line on
   stderr and exit status 2. *)
let fail msg =
  Printf.eprintf "revizor: %s\n" msg;
  2

let arm_faults fault_inject fault_seed =
  match fault_inject with
  | None -> Ok ()
  | Some spec -> (
      match Revizor_obs.Faultpoint.parse_spec spec with
      | Ok points ->
          Revizor_obs.Faultpoint.enable ~seed:fault_seed points;
          Ok ()
      | Error e -> Error (Printf.sprintf "--fault-inject: %s" e))

(* --- fuzz ----------------------------------------------------------- *)

(* Graceful shutdown: the first SIGINT/SIGTERM requests a cooperative
   stop — the fuzz loop finishes the current test case, writes a final
   checkpoint and flushes telemetry. A second SIGINT force-exits. *)
let stop_requested = Atomic.make false

let install_signal_handlers () =
  let handle _ =
    if Atomic.exchange stop_requested true then exit 130
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handle);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handle)

(* Every run ends with one closing stats line, whatever the progress
   mode. It counts from the campaign's [Fuzzer.stats], which a resumed
   campaign carries over from its checkpoint; the rate is over this
   process's own test cases ([resumed_at] and on) and wall time. *)
let closing_line ~started ~resumed_at ~outcome (s : Fuzzer.stats) =
  let elapsed = Unix.gettimeofday () -. started in
  let rate =
    if elapsed > 0. then float_of_int (s.Fuzzer.test_cases - resumed_at) /. elapsed
    else 0.
  in
  Printf.printf
    "done: %d test cases in %.1fs (%.1f tc/s) | inputs %d (effective %d) | \
     candidates %d (swap-dismissed %d, nesting-dismissed %d, faulted %d) | %s\n%!"
    s.Fuzzer.test_cases elapsed rate s.Fuzzer.inputs_tested
    s.Fuzzer.effective_inputs s.Fuzzer.candidates s.Fuzzer.dismissed_by_swap
    s.Fuzzer.dismissed_by_nesting s.Fuzzer.faulted_test_cases
    (match outcome with
    | Fuzzer.Violation _ -> "VIOLATION"
    | Fuzzer.No_violation -> "no violation")

let do_fuzz contract target seed budget inputs minimize save_dir
    executor_domains trace_out progress checkpoint checkpoint_every
    resume fault_inject fault_seed monitor_sock stats_out =
  (* Flag validation up front, before anything touches the terminal or
     the filesystem. *)
  let validation =
    if resume && checkpoint = None then
      Error "--resume requires --checkpoint FILE"
    else arm_faults fault_inject fault_seed
  in
  match validation with
  | Error msg -> fail msg
  | Ok () ->
  (* Caller-owned atlas so it can be saved after the campaign. *)
  let ucov = Ucoverage.create () in
  (match trace_out with Some path -> Telemetry.enable_file path | None -> ());
  let monitor =
    Option.map
      (fun path ->
        let m = Revizor_obs.Monitor.create ~path in
        if progress <> `Quiet then
          Printf.printf "[monitor endpoint on %s]\n%!" path;
        m)
      monitor_sock
  in
  install_signal_handlers ();
  if progress <> `Quiet then
    Printf.printf "Testing %s against %s (seed %Ld, budget %d test cases)\n%!"
      (Format.asprintf "%a" Target.pp target)
      (Contract.name contract) seed budget;
  let cfg = Target.fuzzer_config ~seed ~n_inputs:inputs contract target in
  let cfg = { cfg with Fuzzer.executor_domains = max 1 executor_domains } in
  let resume_snapshot =
    match (resume, checkpoint) with
    | true, Some path -> (
        match Campaign.load ~path cfg with
        | Ok s ->
            if progress <> `Quiet then
              Printf.printf "Resuming from %s (%d test cases done)\n%!" path
                s.Fuzzer.sn_stats.Fuzzer.test_cases;
            Some s
        | Error e ->
            Printf.eprintf "revizor: %s\n" e;
            exit 2)
    | _ -> None
  in
  let resumed_at =
    match resume_snapshot with
    | Some s -> s.Fuzzer.sn_stats.Fuzzer.test_cases
    | None -> 0
  in
  let started = Unix.gettimeofday () in
  let on_progress =
    match progress with
    | `Quiet -> fun _ -> ()
    | `Line ->
        fun (s : Fuzzer.stats) ->
          if s.Fuzzer.test_cases mod 100 = 0 then
            Printf.printf "  ... %d test cases, %d inputs\n%!" s.Fuzzer.test_cases
              s.Fuzzer.inputs_tested
  in
  let on_checkpoint =
    Option.map (fun path snap -> Campaign.save ~path cfg snap) checkpoint
  in
  let run () =
    let result =
      Fuzzer.fuzz ~on_progress
        ~should_stop:(fun () -> Atomic.get stop_requested)
        ?resume:resume_snapshot ~checkpoint_every ?on_checkpoint ?monitor
        ~ucoverage:ucov cfg ~budget:(Fuzzer.Test_cases budget)
    in
    (* The fault schedule covers the campaign only. The flight recorder
       and the minimizer below measure again on executors of their own;
       a fault injected there would kill the run after its outcome is
       known. *)
    Revizor_obs.Faultpoint.disable ();
    result
  in
  let finish outcome (stats : Fuzzer.stats) =
    closing_line ~started ~resumed_at ~outcome stats;
    if Atomic.get stop_requested then
      Printf.printf "interrupted after %d test cases%s\n%!"
        stats.Fuzzer.test_cases
        (match checkpoint with
        | Some path -> Printf.sprintf " — checkpoint written to %s" path
        | None -> "");
    (* The stats/atlas artifact for campaigns that never hit a violation
       (a compliant target leaves no --save directory): same
       revizor.stats.v1 document [revizor coverage] reads. *)
    (match stats_out with
    | Some path ->
        Results.save_stats ~stats ~ucoverage:ucov ~path;
        if progress <> `Quiet then Printf.printf "[stats written to %s]\n%!" path
    | None -> ());
    (* Flush-then-disable so the JSONL sink ends on a complete line even
       when the shutdown was signal-initiated. *)
    Telemetry.flush ();
    Telemetry.disable ();
    (match monitor with
    | Some m ->
        (* Brief post-campaign drain: a client that connected during the
           final test case still gets its answer before the endpoint is
           torn down, and an idle endpoint costs one poll, not the full
           timeout. *)
        Revizor_obs.Monitor.drain ~timeout:0.2 m;
        Revizor_obs.Monitor.close m
    | None -> ())
  in
  match run () with
  | Fuzzer.No_violation, stats ->
      finish Fuzzer.No_violation stats;
      Format.printf "No violation detected.@.%a@." Fuzzer.pp_stats stats;
      0
  | Fuzzer.Violation v, stats ->
      finish (Fuzzer.Violation v) stats;
      Format.printf "%a@.@.%a@." Violation.pp v Fuzzer.pp_stats stats;
      (match save_dir with
      | Some dir ->
          Results.save_violation ~stats ~ucoverage:ucov ~dir v;
          (* The flight recorder runs after the campaign on a dedicated
             CPU/executor, so enabling it cannot perturb the fuzzing
             outcome above. *)
          Forensics.save ~dir (Forensics.capture cfg v);
          Format.printf
            "@.Saved to \
             %s/{violation.asm,inputs.txt,report.txt,stats.json,forensics.json}@."
            dir
      | None -> ());
      if minimize then begin
        let cpu = Revizor_uarch.Cpu.create cfg.Fuzzer.uarch in
        let executor = Executor.create cpu cfg.Fuzzer.executor in
        let m = Postprocessor.minimize cfg executor v in
        Format.printf "@.Minimized test case (%d inputs):@.%a@."
          (List.length m.Postprocessor.inputs)
          Revizor_isa.Program.pp m.Postprocessor.program;
        Format.printf "@.With localizing fences:@.%a@." Revizor_isa.Program.pp
          m.Postprocessor.fenced
      end;
      1

let fuzz_cmd =
  let minimize =
    Arg.(value & flag & info [ "m"; "minimize" ] ~doc:"Minimize the violation.")
  in
  let save_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"DIR"
          ~doc:"Save the counterexample (asm + input seeds + report) to DIR.")
  in
  let executor_domains =
    Arg.(
      value & opt int 1
      & info [ "executor-domains" ] ~docv:"N"
          ~doc:
            "Size of the campaign's domain pool: generation stays on the \
             main domain while N domains check different test cases \
             (compile, materialize, model, execute, analyze) \
             concurrently. Results, statistics and checkpoints are \
             bit-identical for every N (noise and fault-injection draws \
             are keyed per test case), so checkpoints written under any \
             value resume under any other. To run independent seeds in \
             parallel, use $(b,revizor fleet run).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Stream JSONL telemetry events (per-stage spans, coverage and \
             growth events, and a fuzz.heartbeat status event every 50 test \
             cases) to FILE during the run.")
  in
  let progress =
    Arg.(
      value
      & opt (enum [ ("quiet", `Quiet); ("line", `Line) ]) `Line
      & info [ "progress" ] ~docv:"MODE"
          ~doc:
            "Progress reporting: $(b,quiet) (closing stats line only) or \
             $(b,line) (a line every 100 test cases). For a live view of a \
             running campaign, start it with $(b,--monitor) SOCK and query \
             $(b,revizor monitor) SOCK $(b,status).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write campaign checkpoints (PRNG state, coverage, statistics) \
             to FILE, atomically, every $(b,--checkpoint-every) test cases \
             and at shutdown.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 50
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Test cases between periodic checkpoints (with --checkpoint).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from $(b,--checkpoint) FILE. The resumed campaign is \
             bit-identical to the uninterrupted one; a checkpoint taken \
             under a different configuration is rejected.")
  in
  let monitor_sock =
    Arg.(
      value
      & opt (some string) None
      & info [ "monitor" ] ~docv:"SOCK"
          ~doc:
            "Serve live campaign state on a Unix-domain socket at SOCK: \
             line-delimited $(b,status)/$(b,metrics)/$(b,health) JSON \
             requests plus a one-shot $(b,prom) Prometheus text \
             exposition (query with $(b,revizor monitor)). Served \
             non-blockingly at test-case boundaries; fuzzing results are \
             bit-identical with or without it.")
  in
  let stats_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-out" ] ~docv:"FILE"
          ~doc:
            "Write the revizor.stats.v1 document (statistics, the metrics \
             registry and the coverage atlas) to FILE at campaign end — \
             also for compliant campaigns, which never produce a --save \
             directory. Read by $(b,revizor coverage) and \
             $(b,revizor telemetry-check).")
  in
  Cmd.v (Cmd.info "fuzz" ~doc:"Fuzz a target against a contract (Fig. 2 pipeline).")
    Term.(
      const do_fuzz $ contract_arg $ target_arg $ seed_arg $ budget_arg
      $ inputs_arg $ minimize $ save_dir $ executor_domains
      $ trace_out $ progress $ checkpoint $ checkpoint_every $ resume
      $ fault_inject_arg $ fault_seed_arg $ monitor_sock $ stats_out)

(* --- check: re-verify a saved counterexample -------------------------- *)

let do_check dir contract target =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Printf.eprintf "%s\n" e; 2 in
  let* program = Results.load_program (Filename.concat dir "violation.asm") in
  let* inputs = Results.load_inputs (Filename.concat dir "inputs.txt") in
  let cfg = Target.fuzzer_config contract target in
  let cpu = Revizor_uarch.Cpu.create cfg.Fuzzer.uarch in
  let executor = Executor.create cpu cfg.Fuzzer.executor in
  match Fuzzer.check_test_case cfg executor program inputs with
  | Ok (Some v) ->
      Format.printf "still a violation: %s@." (Violation.summary v);
      1
  | Ok None ->
      Format.printf "no violation with this target/contract@.";
      0
  | Error e ->
      Printf.eprintf "test case faulted: %s\n" e;
      2

let check_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"Directory produced by fuzz --save.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Re-verify a saved counterexample directory.")
    Term.(const do_check $ dir $ contract_arg $ target_arg)

(* --- gadget ---------------------------------------------------------- *)

let do_gadget name list_them contract target seed =
  if list_them then begin
    List.iter
      (fun (g : Gadgets.t) ->
        Printf.printf "%-22s %-10s %s\n" g.Gadgets.name g.Gadgets.reference
          g.Gadgets.description)
      Gadgets.all;
    0
  end
  else
    match Gadgets.find name with
    | None ->
        Printf.eprintf "unknown gadget %S (try --list)\n" name;
        2
    | Some g -> (
        Format.printf "%s (%s)@.%s@.@.%a@.@." g.Gadgets.name g.Gadgets.reference
          g.Gadgets.description Revizor_isa.Program.pp g.Gadgets.program;
        let pair =
          Format.asprintf "%a vs %s" Target.pp target (Contract.name contract)
        in
        match Experiments.check_gadget ~seed contract target g with
        | Ok (Some v) ->
            Format.printf "%s: VIOLATION %s@." pair (Violation.summary v);
            1
        | Ok None ->
            Format.printf "%s: no violation@." pair;
            0
        | Error e ->
            Printf.eprintf "gadget faulted: %s\n" e;
            2)

let gadget_cmd =
  let gadget_name =
    Arg.(
      value & pos 0 string "spectre-v1"
      & info [] ~docv:"NAME" ~doc:"Gadget name (see --list).")
  in
  let list_them = Arg.(value & flag & info [ "list" ] ~doc:"List gadgets.") in
  Cmd.v
    (Cmd.info "gadget" ~doc:"Check a hand-written gadget against a contract.")
    Term.(
      const do_gadget $ gadget_name $ list_them $ contract_arg $ target_arg
      $ seed_arg)

(* --- reproduce -------------------------------------------------------- *)

(* The instruction-catalog sizes of Table 2, also printed by [revizor isa]. *)
let isa_table () =
  let open Revizor_isa in
  let row name subsets =
    Printf.sprintf "%-18s %4d unique instruction variants" name
      (Catalog.count subsets)
  in
  String.concat "\n"
    [
      row "AR" [ Catalog.AR ];
      row "AR+MEM" [ Catalog.AR; Catalog.MEM ];
      row "AR+MEM+VAR" [ Catalog.AR; Catalog.MEM; Catalog.VAR ];
      row "AR+CB" [ Catalog.AR; Catalog.CB ];
      row "AR+MEM+CB" [ Catalog.AR; Catalog.MEM; Catalog.CB ];
      row "AR+MEM+CB+VAR" [ Catalog.AR; Catalog.MEM; Catalog.CB; Catalog.VAR ];
      row "+IND (extension)"
        [ Catalog.AR; Catalog.MEM; Catalog.CB; Catalog.VAR; Catalog.IND ];
    ]

(* §6.3: each latency-race gadget against the contracts that permit its
   base speculation type, and the V4 variant against the V4 patch. *)
let variants ~seed =
  String.concat "\n"
    (List.map
       (fun ((g : Gadgets.t), contract, (target : Target.t)) ->
         Printf.sprintf "%-18s vs %-14s on %-28s %s" g.Gadgets.name
           (Contract.name contract)
           target.Target.uarch.Revizor_uarch.Uarch_config.name
           (match Experiments.check_gadget ~seed contract target g with
           | Ok (Some v) -> Printf.sprintf "VIOLATION (%s)" v.Violation.label
           | Ok None | Error _ -> "compliant"))
       [
         (Gadgets.spectre_v1_var, Contract.ct_cond, Target.target6);
         (Gadgets.spectre_v1_var, Contract.ct_cond_bpas, Target.target6);
         (Gadgets.spectre_v4_var, Contract.ct_bpas, Target.target3);
         (Gadgets.spectre_v4_var, Contract.ct_cond_bpas, Target.target3);
         (Gadgets.spectre_v4_var, Contract.ct_bpas, Target.target4);
       ])

let reproduce_sections =
  [ "table2"; "table3"; "table4"; "table5"; "variants"; "store-eviction";
    "sensitivity"; "throughput"; "ports"; "ablations"; "all" ]

let do_reproduce what budget runs seed =
  let section title body =
    Printf.printf "\n=== %s ===\n%s\n%!" title body
  in
  let all = what = "all" in
  if all || what = "table2" then
    section "Table 2: experimental setups"
      (String.concat "\n"
         (List.map (Format.asprintf "%a" Target.pp) Target.all)
      ^ "\n\n" ^ isa_table ());
  if all || what = "table3" then
    section "Table 3: contract violations per target"
      (Report.table3 (Experiments.table3 ~budget ~seed ()));
  if all || what = "table4" then
    section "Table 4: detection time"
      (Report.table4 (Experiments.table4 ~runs ~seed ()));
  if all || what = "table5" then
    section "Table 5: inputs to violation on hand-written gadgets"
      (Report.table5 (Experiments.table5 ~runs:(max runs 20) ~seed ()));
  if all || what = "variants" then
    section "Section 6.3: novel latency-race variants" (variants ~seed);
  if all || what = "store-eviction" then
    section "Section 6.4: speculative store eviction"
      (Report.store_eviction (Experiments.store_eviction_check ~seed ()));
  if all || what = "sensitivity" then
    section "Section 6.6: contract sensitivity (STT)"
      (Report.sensitivity (Experiments.contract_sensitivity ~seed ()));
  if all || what = "throughput" then
    section "Appendix A.5.3: fuzzing throughput"
      (Report.throughput (Experiments.throughput ~seed ()));
  if all || what = "ports" then
    section "Extension: port-contention channel"
      (String.concat "\n"
         (List.map
            (fun (g, channel, violated) ->
              Printf.sprintf "%-18s via %-16s %s" g channel
                (if violated then "VIOLATION" else "compliant"))
            (Experiments.port_channel_demo ~seed ())));
  if all || what = "ablations" then begin
    section "Ablation: priming" (Report.ablation (Experiments.ablation_priming ~seed ()));
    section "Ablation: input entropy"
      (Report.entropy_sweep (Experiments.ablation_entropy ~seed ()));
    section "Ablation: noise filtering"
      (Report.ablation (Experiments.ablation_noise_filtering ~seed ()));
    section "Ablation: trace equivalence"
      (Report.ablation (Experiments.ablation_equivalence ~seed ()));
    section "Ablation: swap check"
      (Report.ablation (Experiments.ablation_swap_check ~seed ()));
    section "Ablation: coverage feedback"
      (Report.ablation (Experiments.ablation_feedback ~seed ()));
    section "Ablation: speculation window (V1 gadget vs CT-COND)"
      (String.concat "\n"
         (List.map
            (fun (w, violated) ->
              Printf.sprintf "window %3d: %s" w
                (if violated then "VIOLATED" else "compliant"))
            (Experiments.ablation_speculation_window ~seed ())))
  end;
  0

let reproduce_cmd =
  let what =
    Arg.(
      value
      & pos 0 (enum (List.map (fun e -> (e, e)) reproduce_sections)) "all"
      & info [] ~docv:"EXPERIMENT"
          ~doc:("One of: " ^ String.concat ", " reproduce_sections ^ "."))
  in
  let budget =
    Arg.(
      value & opt int 400
      & info [ "budget" ] ~docv:"N" ~doc:"Test-case budget per Table 3 cell.")
  in
  let runs =
    Arg.(
      value & opt int 10
      & info [ "runs" ] ~docv:"N" ~doc:"Repetitions for Tables 4 and 5.")
  in
  Cmd.v
    (Cmd.info "reproduce" ~doc:"Re-run the paper's experiments and print the tables.")
    Term.(const do_reproduce $ what $ budget $ runs $ seed_arg)

(* --- telemetry-check --------------------------------------------------- *)

(* Validator for a campaign's stats.json (from --stats-out or --save)
   and its --trace-out JSONL; CI runs it after the telemetry smoke fuzz. *)

(* The stage table of the stats document's registry snapshot; the
   stages must account for at least 95% of a one-domain campaign loop's
   time. *)
let check_stats_file path =
  match Result.bind (Results.load_stats path) Results.stage_table with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok ({ Results.counters; stages; campaign_s; accounted_share; _ } as t) ->
      let row (st : Metrics.stage) =
        let ns = float_of_int st.Metrics.st_total_ns in
        Printf.sprintf "\n  %-18s %9d calls %10.1f ms %6.1f%%" st.Metrics.st_name
          st.Metrics.st_calls (ns /. 1e6) (100. *. ns /. (campaign_s *. 1e9))
      in
      let report =
        Printf.sprintf "%d counters, %d stages, %.1f%% of %.2fs campaign time accounted"
          counters (List.length stages) (100. *. accounted_share) campaign_s
      in
      let table = String.concat "" (List.map row stages) in
      match Results.check_stage_table t with
      | Ok () -> Ok (Printf.sprintf "%s: OK (%s)%s" path report table)
      | Error why -> Error (Printf.sprintf "%s: %s, %s%s" path report why table)

(* A malformed FINAL line is tolerated and reported: a campaign killed
   mid-write (SIGKILL, OOM) leaves exactly one truncated tail line, and
   the artifact up to it is still valid evidence. Malformed lines
   anywhere else still fail the check. *)
let check_trace_file path =
  match Revizor_obs.Trace_analysis.load_file path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok (lines, sc) ->
      if sc.Telemetry.sc_spans + sc.Telemetry.sc_events = 0 then
        Error (Printf.sprintf "%s: no events" path)
      else
        (* Structural validation on top of the line-level scan: per
           domain, spans must nest or be disjoint (a partial overlap is
           an orphaned span end — a telemetry bug), and the deepest
           uncovered interval is reported so accounting holes are
           visible at a glance. *)
        let module T = Revizor_obs.Trace_analysis in
        let checks = T.check_domains (T.spans_of_lines lines) in
        let orphans =
          List.concat_map
            (fun (dom, n, _) -> List.map (fun pair -> (dom, pair)) n.T.nst_orphans)
            checks
        in
        if orphans <> [] then
          let dom, (outer, inner) = List.hd orphans in
          Error
            (Printf.sprintf
               "%s: %d orphaned span(s) — e.g. dom %d: %S [%d,+%d] \
                partially overlaps %S [%d,+%d]"
               path (List.length orphans) dom inner.T.sp_name inner.T.sp_start
               inner.T.sp_dur outer.T.sp_name outer.T.sp_start outer.T.sp_dur)
        else
          let gap =
            List.fold_left
              (fun acc (dom, _, gap) ->
                match (acc, gap) with
                | Some (_, best), Some g when best.T.g_dur >= g.T.g_dur -> acc
                | _, Some g -> Some (dom, g)
                | _, None -> acc)
              None checks
          in
          Ok
            (Printf.sprintf "%s: OK (%d spans, %d events, nesting valid%s%s)"
               path sc.Telemetry.sc_spans sc.Telemetry.sc_events
               (match gap with
               | Some (dom, g) ->
                   Printf.sprintf
                     "; deepest unaccounted gap %.2f ms on dom %d between \
                      %s and %s"
                     (float_of_int g.T.g_dur /. 1e6)
                     dom g.T.g_after g.T.g_before
               | None -> "")
               (if sc.Telemetry.sc_truncated_tail then
                  "; truncated final line tolerated"
                else ""))

let do_telemetry_check stats_file trace_file =
  let results =
    (match stats_file with Some p -> [ check_stats_file p ] | None -> [])
    @ (match trace_file with Some p -> [ check_trace_file p ] | None -> [])
  in
  if results = [] then begin
    Printf.eprintf "nothing to check: pass --stats and/or --trace\n";
    2
  end
  else begin
    List.iter
      (function
        | Ok msg -> Printf.printf "%s\n" msg
        | Error msg -> Printf.eprintf "FAIL %s\n" msg)
      results;
    if List.for_all Result.is_ok results then 0 else 1
  end

let telemetry_check_cmd =
  let stats_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "stats" ] ~docv:"FILE"
          ~doc:"A stats.json, from fuzz --stats-out or --save.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"JSONL trace from --trace-out.")
  in
  Cmd.v
    (Cmd.info "telemetry-check"
       ~doc:
         "Validate a campaign's stats.json (its stages must account for at \
          least 95% of the campaign's time) and --trace-out JSONL (used by \
          CI).")
    Term.(const do_telemetry_check $ stats_file $ trace_file)

(* --- monitor: query a live campaign's endpoint ------------------------- *)

(* The server answers at test-case boundaries, so a reply may be a few
   test cases away; the wait is bounded rather than open-ended. *)
let do_monitor sock cmd =
  match Revizor_obs.Monitor.request ~timeout:30. ~path:sock cmd with
  | Ok reply ->
      print_string reply;
      if not (String.ends_with ~suffix:"\n" reply) then print_newline ();
      0
  | Error e -> fail (sock ^ ": " ^ e)

let monitor_cmd =
  let sock =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOCK" ~doc:"Socket path passed to fuzz --monitor.")
  in
  let cmd =
    Arg.(
      value & pos 1 string "status"
      & info [] ~docv:"CMD"
          ~doc:
            "Request: status, metrics, health, coverage, or prom \
             (Prometheus text).")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Query a running campaign's --monitor endpoint.")
    Term.(const do_monitor $ sock $ cmd)

(* --- trace: analytics over --trace-out JSONL --------------------------- *)

module TA = Revizor_obs.Trace_analysis

let load_trace path k =
  match TA.load_file path with
  | Error e -> fail e
  | Ok (lines, scan) -> k lines scan

let do_trace_report file =
  load_trace file @@ fun lines scan ->
  let spans = TA.spans_of_lines lines in
  Printf.printf "%s: %d spans, %d events%s\n" file scan.Telemetry.sc_spans
    scan.Telemetry.sc_events
    (if scan.Telemetry.sc_truncated_tail then " (truncated tail dropped)"
     else "");
  if spans = [] then begin
    Printf.printf "no spans to analyze\n";
    0
  end
  else begin
    Printf.printf "\nPer-stage totals:\n";
    Printf.printf "  %-22s %9s %12s %12s %12s\n" "stage" "calls" "total ms"
      "mean us" "max us";
    List.iter
      (fun (st : TA.stage_stat) ->
        Printf.printf "  %-22s %9d %12.2f %12.1f %12.1f\n" st.TA.st_stage
          st.TA.st_calls
          (float_of_int st.TA.st_total_ns /. 1e6)
          (float_of_int st.TA.st_total_ns
          /. float_of_int (max 1 st.TA.st_calls)
          /. 1e3)
          (float_of_int st.TA.st_max_ns /. 1e3))
      (TA.stage_stats spans);
    Printf.printf "\nPer-domain utilization:\n";
    Printf.printf "  %-6s %9s %12s %12s %8s  %s\n" "dom" "spans" "busy ms"
      "stall ms" "busy%" "top stage";
    List.iter
      (fun (d : TA.domain_stat) ->
        let wall = d.TA.d_busy_ns + d.TA.d_stall_ns in
        Printf.printf "  %-6d %9d %12.2f %12.2f %7.1f%%  %s\n" d.TA.d_dom
          d.TA.d_spans
          (float_of_int d.TA.d_busy_ns /. 1e6)
          (float_of_int d.TA.d_stall_ns /. 1e6)
          (if wall = 0 then 0.
           else 100. *. float_of_int d.TA.d_busy_ns /. float_of_int wall)
          d.TA.d_top_stage)
      (TA.domain_stats spans);
    let checks = TA.check_domains spans in
    List.iter
      (fun (dom, n, gap) ->
        if n.TA.nst_orphans <> [] then
          Printf.printf "\ndom %d: %d ORPHANED span pair(s)\n" dom
            (List.length n.TA.nst_orphans);
        match gap with
        | Some g ->
            Printf.printf
              "dom %d: max depth %d, deepest gap %.2f ms (%s -> %s)\n" dom
              n.TA.nst_max_depth
              (float_of_int g.TA.g_dur /. 1e6)
              g.TA.g_after g.TA.g_before
        | None -> Printf.printf "dom %d: max depth %d, no gaps\n" dom n.TA.nst_max_depth)
      checks;
    if List.for_all (fun (_, n, _) -> n.TA.nst_orphans = []) checks then 0 else 1
  end

let do_trace_export file out =
  load_trace file @@ fun lines _scan ->
  Revizor_obs.Atomic_file.write out (Json.to_string (TA.to_chrome lines) ^ "\n");
  Printf.printf "wrote %s (load in Perfetto / chrome://tracing)\n" out;
  0

let do_trace_diff file_a file_b =
  load_trace file_a @@ fun lines_a _ ->
  load_trace file_b @@ fun lines_b _ ->
  let rows = TA.diff (TA.spans_of_lines lines_a) (TA.spans_of_lines lines_b) in
  Printf.printf "%-22s %18s %18s %10s\n" "stage"
    (Filename.basename file_a ^ " mean us")
    (Filename.basename file_b ^ " mean us")
    "B/A";
  List.iter
    (fun (r : TA.diff_row) ->
      let mean m = if Float.is_nan m then "-" else Printf.sprintf "%.1f" (m /. 1e3) in
      Printf.printf "%-22s %18s %18s %10s\n" r.TA.dr_stage
        (mean r.TA.dr_mean_a_ns) (mean r.TA.dr_mean_b_ns)
        (if Float.is_nan r.TA.dr_mean_ratio then "-"
         else Printf.sprintf "%.2fx" r.TA.dr_mean_ratio))
    rows;
  0

let trace_cmd =
  let file n doc = Arg.(required & pos n (some file) None & info [] ~docv:"FILE" ~doc) in
  let report =
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Per-stage and per-domain summary of a --trace-out JSONL file: \
            stage totals, domain utilization with stall attribution, span \
            nesting and the deepest unaccounted gap.")
      Term.(const do_trace_report $ file 0 "JSONL trace from --trace-out.")
  in
  let export =
    let out =
      Arg.(
        value & opt string "trace.perfetto.json"
        & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output path.")
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:
           "Convert a --trace-out JSONL file to Chrome trace-event JSON \
            (loadable in Perfetto / chrome://tracing).")
      Term.(const do_trace_export $ file 0 "JSONL trace from --trace-out." $ out)
  in
  let diff =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Per-stage regression table between two recorded runs: calls, \
            mean time and the B/A mean ratio per stage.")
      Term.(
        const do_trace_diff
        $ file 0 "Baseline JSONL trace."
        $ file 1 "Candidate JSONL trace.")
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Analyze --trace-out telemetry (report/export/diff).")
    [ report; export; diff ]

(* --- forensics --------------------------------------------------------- *)

(* The campaign's atlas at detection is the one in the stats.json that
   --save writes beside forensics.json: the campaign ends at the
   violation, and both files are written from the same atlas. *)
let do_forensics_show path =
  let dir, path =
    if Sys.file_exists path && Sys.is_directory path then
      (path, Forensics.file ~dir:path)
    else (Filename.dirname path, path)
  in
  match Forensics.load path with
  | Error e -> fail e
  | Ok f ->
      print_string (Forensics.render f);
      let stats = Filename.concat dir "stats.json" in
      (if Sys.file_exists stats then
         match Results.load_stats stats with
         | Ok { Results.ucoverage = Some u; _ } ->
             Printf.printf
               "\n== Campaign coverage atlas at detection ==\n\
               \  %d distinct microarchitectural features covered\n%s"
               (Ucoverage.distinct u)
               (Ucoverage.render_kind_table u)
         | Ok { Results.ucoverage = None; _ } -> ()
         | Error e -> Printf.eprintf "revizor: %s\n" e);
      0

let forensics_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PATH"
          ~doc:"A forensics.json file, or a fuzz --save directory.")
  in
  let show =
    Cmd.v
      (Cmd.info "show"
         ~doc:
           "Render a violation's flight-recorder artifact: program, \
            diverging traces, speculation timeline, fence-localized leak \
            region, and the campaign's coverage atlas at detection when a \
            stats.json with one sits beside it.")
      Term.(const do_forensics_show $ path)
  in
  Cmd.group
    (Cmd.info "forensics" ~doc:"Inspect violation flight-recorder artifacts.")
    [ show ]

(* --- coverage: the microarchitectural coverage atlas ------------------- *)

(* Accepts a stats.json path or a directory holding one (fuzz --save /
   --stats-out both produce the same revizor.stats.v1 document). *)
let load_atlas path =
  let stats_path =
    if Sys.file_exists path && Sys.is_directory path then
      Filename.concat path "stats.json"
    else path
  in
  match Results.load_stats stats_path with
  | Error e -> Error e
  | Ok { Results.ucoverage = None; _ } ->
      Error
        (Printf.sprintf
           "%s: no coverage atlas (the file predates atlas collection)"
           stats_path)
  | Ok { Results.ucoverage = Some u; stats; _ } -> Ok (u, stats)

let with_atlas path k =
  match load_atlas path with
  | Error e -> fail e
  | Ok (u, stats) -> k u stats

let do_coverage_report path =
  with_atlas path @@ fun u stats ->
  let test_cases =
    Option.map (fun (s : Fuzzer.stats) -> s.Fuzzer.test_cases) stats
  in
  print_string (Ucoverage.render_report ?test_cases u);
  0

let do_coverage_diff path_a path_b =
  with_atlas path_a @@ fun a _ ->
  with_atlas path_b @@ fun b _ ->
  let only_a, only_b = Ucoverage.diff a b in
  let show title features =
    Printf.printf "%s (%d):\n" title (List.length features);
    List.iter
      (fun f -> Printf.printf "  %s\n" (Ucoverage.feature_to_string f))
      features
  in
  if only_a = [] && only_b = [] then begin
    Printf.printf
      "atlases cover identical feature sets (%d features each)\n"
      (Ucoverage.distinct a);
    0
  end
  else begin
    show (Printf.sprintf "only covered by %s" path_a) only_a;
    show (Printf.sprintf "only covered by %s" path_b) only_b;
    0
  end

let do_coverage_export path out format frontier_only =
  with_atlas path @@ fun u _ ->
  let contents =
    match format with
    | `Json ->
        Json.to_string_pretty
          (if frontier_only then
             Json.List
               (List.map
                  (fun (tc, n) -> Json.List [ Json.Int tc; Json.Int n ])
                  (Ucoverage.frontier u))
           else Ucoverage.to_json u)
        ^ "\n"
    | `Csv ->
        if frontier_only then
          "test_case,cumulative_features\n"
          ^ String.concat ""
              (List.map
                 (fun (tc, n) -> Printf.sprintf "%d,%d\n" tc n)
                 (Ucoverage.frontier u))
        else
          "feature,first_hit_tc\n"
          ^ String.concat ""
              (List.map
                 (fun (f, tc) ->
                   Printf.sprintf "%s,%d\n" (Ucoverage.feature_to_string f) tc)
                 (Ucoverage.first_hits u))
  in
  (match out with
  | Some o ->
      Revizor_obs.Atomic_file.write o contents;
      Printf.printf "wrote %s\n" o
  | None -> print_string contents);
  0

let coverage_cmd =
  let atlas_pos n doc =
    Arg.(required & pos n (some string) None & info [] ~docv:"PATH" ~doc)
  in
  let report =
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Render a campaign's microarchitectural coverage atlas: \
            per-mechanism and per-bucket feature tables with first-hit \
            test cases, and the saturation curve. A corrupt atlas (for \
            example a saturation curve that is not strictly monotone) is \
            refused when the file is read, with exit status 2.")
      Term.(
        const do_coverage_report
        $ atlas_pos 0 "A stats.json (from fuzz --save or --stats-out), or a \
                       directory holding one.")
  in
  let diff =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Differential coverage between two campaigns: which speculation \
            features each covered that the other did not (e.g. an \
            unpatched target vs its patched variant).")
      Term.(
        const do_coverage_diff
        $ atlas_pos 0 "Baseline stats.json or directory."
        $ atlas_pos 1 "Comparison stats.json or directory.")
  in
  let export =
    let out =
      Arg.(
        value
        & opt (some string) None
        & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output path (default stdout).")
    in
    let format =
      Arg.(
        value
        & opt (enum [ ("csv", `Csv); ("json", `Json) ]) `Csv
        & info [ "format" ] ~docv:"FMT" ~doc:"Output format: csv or json.")
    in
    let frontier_only =
      Arg.(
        value & flag
        & info [ "frontier" ]
            ~doc:
              "Export the saturation curve (test case, cumulative features) \
               instead of the per-feature first-hit table.")
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:
           "Export the atlas as CSV or JSON: per-feature first hits, or \
            the saturation curve with --frontier.")
      Term.(
        const do_coverage_export
        $ atlas_pos 0 "A stats.json or directory holding one."
        $ out $ format $ frontier_only)
  in
  Cmd.group
    (Cmd.info "coverage"
       ~doc:
         "Inspect microarchitectural coverage atlases (report/diff/export).")
    [ report; diff; export ]

(* --- isa --------------------------------------------------------------- *)

let isa_cmd =
  Cmd.v
    (Cmd.info "isa" ~doc:"Report the instruction-catalog sizes (cf. §6.1).")
    Term.(const (fun () -> print_endline (isa_table ()); 0) $ const ())

(* --- fleet: multi-process campaign orchestration ----------------------- *)

module Fleet_ledger = Revizor_fleet.Ledger
module Fleet_merge = Revizor_fleet.Merge
module Fleet_orch = Revizor_fleet.Orchestrator

(* Closing summary for run/resume/status: ledger counts plus the merged
   corpus. Exit codes: 0 compliant, 1 violations found, 3 shards
   quarantined (results incomplete), 2 operational error. *)
let fleet_summary dir =
  match Fleet_ledger.load ~dir with
  | Error e -> fail e
  | Ok ledger ->
      let p, l, d, q = Fleet_ledger.counts ledger in
      Printf.printf
        "fleet %s: %d shards — %d done, %d pending, %d leased, %d quarantined\n"
        (Fleet_ledger.fingerprint ledger.Fleet_ledger.spec)
        (Array.length ledger.Fleet_ledger.shards)
        d p l q;
      let violations =
        match Fleet_merge.load ~dir ~spec:ledger.Fleet_ledger.spec with
        | Error e ->
            Printf.printf "  (no merged corpus: %s)\n" e;
            0
        | Ok m ->
            let vs = Fleet_merge.violations m in
            Printf.printf "  merged: %d shards, %d violations, %d atlas features\n"
              (List.length (Fleet_merge.shards m))
              (List.length vs)
              (Ucoverage.distinct (Fleet_merge.atlas m));
            List.iter
              (fun (v : Fleet_merge.violation) ->
                Printf.printf "  shard %d (seed 0x%Lx): %s\n" v.Fleet_merge.mv_shard
                  v.Fleet_merge.mv_seed
                  v.Fleet_merge.mv_entry.Revizor_fleet.Worker.v_label)
              vs;
            List.length vs
      in
      flush stdout;
      if q > 0 then 3 else if violations > 0 then 1 else 0

let do_fleet_run dir contract target shards seed budget inputs workers lease
    max_attempts checkpoint_every fleet_seed fault_inject fault_seed
    as_reference quiet =
  match arm_faults fault_inject fault_seed with
  | Error e -> fail e
  | Ok () -> (
      let seeds = List.init shards (fun i -> Int64.add seed (Int64.of_int i)) in
      let spec =
        {
          (Fleet_ledger.default_spec ~target:target.Target.name
             ~contract:(Contract.name contract) ~seeds)
          with
          Fleet_ledger.sp_budget = budget;
          sp_n_inputs = inputs;
          sp_workers = max 1 workers;
          sp_lease_s = lease;
          sp_max_attempts = max_attempts;
          sp_checkpoint_every = checkpoint_every;
          sp_fleet_seed = fleet_seed;
        }
      in
      let log =
        if quiet then fun _ -> ()
        else fun s -> Printf.printf "[fleet] %s\n%!" s
      in
      if as_reference then begin
        match Fleet_orch.reference ~dir ~log spec with
        | Ok () -> fleet_summary dir
        | Error e -> fail e
      end
      else begin
        install_signal_handlers ();
        if not quiet then
          Printf.printf
            "Fleet: %s vs %s — %d shards (seeds 0x%Lx..0x%Lx), %d workers, \
             budget %d, lease %.1fs\n%!"
            target.Target.name (Contract.name contract) shards seed
            (Int64.add seed (Int64.of_int (shards - 1)))
            spec.Fleet_ledger.sp_workers budget lease;
        match
          Fleet_orch.run ~dir ~log
            ~should_stop:(fun () -> Atomic.get stop_requested)
            spec
        with
        | Ok Fleet_orch.Completed -> fleet_summary dir
        | Ok Fleet_orch.Interrupted ->
            if not quiet then Printf.printf "[fleet] interrupted; resume with `revizor fleet resume --dir %s`\n%!" dir;
            ignore (fleet_summary dir);
            130
        | Error e -> fail e
      end)

let do_fleet_resume dir fault_inject fault_seed quiet =
  match arm_faults fault_inject fault_seed with
  | Error e -> fail e
  | Ok () -> (
      install_signal_handlers ();
      let log =
        if quiet then fun _ -> ()
        else fun s -> Printf.printf "[fleet] %s\n%!" s
      in
      match
        Fleet_orch.resume ~dir ~log
          ~should_stop:(fun () -> Atomic.get stop_requested)
          ()
      with
      | Ok Fleet_orch.Completed -> fleet_summary dir
      | Ok Fleet_orch.Interrupted ->
          ignore (fleet_summary dir);
          130
      | Error e -> fail e)

(* Prefer the live orchestrator's status socket; fall back to reading the
   ledger off disk when no orchestrator answers. *)
let do_fleet_status dir =
  match
    Revizor_obs.Monitor.request ~timeout:0.3 ~path:(Fleet_ledger.fleet_sock dir)
      "status"
  with
  | Ok reply ->
      print_endline reply;
      0
  | Error _ -> fleet_summary dir

let fleet_cmd =
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "d"; "dir" ] ~docv:"DIR"
          ~doc:"Fleet campaign directory (ledger, checkpoints, merged corpus).")
  in
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:"Number of shards: campaign seeds SEED..SEED+N-1, one per shard.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "w"; "workers" ] ~docv:"N" ~doc:"Concurrent worker processes.")
  in
  let lease =
    Arg.(
      value & opt float 5.
      & info [ "lease" ] ~docv:"SECONDS"
          ~doc:
            "Shard lease length. Heartbeats over the worker's monitor \
             socket renew it; an expired lease means a crashed or hung \
             worker, which is killed and its shard re-adopted from its \
             last checkpoint.")
  in
  let max_attempts =
    Arg.(
      value & opt int 5
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:
            "Failed adoptions (with capped-backoff re-adoption gates) \
             before a shard is quarantined.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 10
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Test cases between a worker's periodic shard checkpoints.")
  in
  let fleet_seed =
    Arg.(
      value & opt int64 42L
      & info [ "fleet-seed" ] ~docv:"SEED"
          ~doc:"Seed for the deterministic re-adoption backoff jitter.")
  in
  let as_reference =
    Arg.(
      value & flag
      & info [ "reference" ]
          ~doc:
            "Run the shards sequentially in-process through the same merge \
             code (no forking, no faults): the byte-identity baseline a \
             fleet run over the same spec is diffed against.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress output.")
  in
  let run =
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run a sharded campaign across worker processes under the \
            lease-based ledger; crash/hang recovery resumes shards from \
            their checkpoints with bit-identical merged results.")
      Term.(
        const do_fleet_run $ dir_arg $ contract_arg $ target_arg $ shards
        $ seed_arg $ budget_arg $ inputs_arg $ workers $ lease $ max_attempts
        $ checkpoint_every $ fleet_seed $ fault_inject_arg $ fault_seed_arg
        $ as_reference $ quiet)
  in
  let resume =
    Cmd.v
      (Cmd.info "resume"
         ~doc:
           "Resume a fleet campaign after orchestrator death: the ledger \
            and shard checkpoints alone reconstruct the state; merged \
            results are byte-identical to an uninterrupted run.")
      Term.(const do_fleet_resume $ dir_arg $ fault_inject_arg $ fault_seed_arg $ quiet)
  in
  let status =
    let dir_pos =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"DIR" ~doc:"Fleet campaign directory.")
    in
    Cmd.v
      (Cmd.info "status"
         ~doc:
           "Query a fleet: the live orchestrator's status socket when one \
            is running, the on-disk ledger and merged corpus otherwise.")
      Term.(const do_fleet_status $ dir_pos)
  in
  Cmd.group
    (Cmd.info "fleet"
       ~doc:
         "Multi-process campaign orchestration: lease-based shard ledger, \
          checkpointed crash recovery, central corpus merge.")
    [ run; resume; status ]

let main =
  Cmd.group
    (Cmd.info "revizor" ~version:"1.0.0"
       ~doc:
         "Model-based Relational Testing of (simulated) black-box CPUs \
          against speculation contracts.")
    [
      fuzz_cmd; check_cmd; gadget_cmd; reproduce_cmd; isa_cmd;
      telemetry_check_cmd; monitor_cmd; trace_cmd; forensics_cmd;
      coverage_cmd; fleet_cmd;
    ]

let () = exit (Cmd.eval' main)
