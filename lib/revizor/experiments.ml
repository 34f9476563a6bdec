open Revizor_isa
open Revizor_uarch

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* Gadget detection needs a violating input pair in the random sequence;
   a single unlucky draw of 50 inputs can miss it, so sample three input
   sequences (deterministically derived) before concluding compliance.
   A faulting sequence does not stop the search, but a gadget that
   violates on none of them and faults on one is reported as faulting. *)
let check_gadget ?(seed = 42L) contract (target : Target.t) (g : Gadgets.t) =
  let cfg = Target.fuzzer_config ~seed contract target in
  let cpu = Cpu.create cfg.Fuzzer.uarch in
  let executor = Executor.create cpu cfg.Fuzzer.executor in
  let rec try_seed k fault =
    if k >= 3 then Option.fold ~none:(Ok None) ~some:Result.error fault
    else
      let prng = Prng.create ~seed:(Int64.add seed (Int64.of_int (1 + (k * 100)))) in
      let inputs = Input.generate_many prng ~entropy:2 ~n:50 in
      match Fuzzer.check_test_case cfg executor g.Gadgets.program inputs with
      | Ok (Some v) -> Ok (Some v)
      | Ok None -> try_seed (k + 1) fault
      | Error e -> try_seed (k + 1) (Some e)
  in
  try_seed 0 None

let gadget_violation ?seed contract target g =
  match check_gadget ?seed contract target g with
  | Ok v -> v
  | Error _ -> None

(* The inputs' contract-trace classes, as the campaign's analyze stage
   builds them; [None] when an input faults architecturally. *)
let model_classes contract prog inputs =
  let results = Model.ctraces ~stream:`First contract prog inputs in
  if List.exists (fun (r : Model.result) -> r.Model.faulted) results then None
  else Some (Fuzzer.classes_of results)

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

type t3_outcome =
  | Detected of { label : string; test_cases : int }
  | Not_detected of { test_cases : int }
  | Skipped
  | Gadget_demo of { label : string }

type t3_cell = {
  target : Target.t;
  contract : Contract.t;
  outcome : t3_outcome;
  paper : string;
}

(* The paper's Table 3, row-major per target (CT-SEQ, CT-BPAS, CT-COND,
   CT-COND-BPAS). *)
let paper_table3 =
  [
    ("Target 1", [ "x"; "x*"; "x*"; "x*" ]);
    ("Target 2", [ "V4"; "x"; "V4"; "x*" ]);
    ("Target 3", [ "V4"; "V4-var"; "V4"; "V4-var" ]);
    ("Target 4", [ "x"; "x*"; "x*"; "x*" ]);
    ("Target 5", [ "V1"; "V1"; "x"; "x*" ]);
    ("Target 6", [ "V1"; "V1"; "V1-var"; "V1-var" ]);
    ("Target 7", [ "MDS"; "MDS"; "MDS"; "MDS" ]);
    ("Target 8", [ "LVI-Null"; "LVI-Null"; "LVI-Null"; "LVI-Null" ]);
  ]

let var_gadget_for (target : Target.t) =
  let has s = List.mem s target.Target.subsets in
  if has Catalog.CB && has Catalog.VAR then Some Gadgets.spectre_v1_var
  else if has Catalog.VAR then Some Gadgets.spectre_v4_var
  else None

let table3 ?(budget = 400) ?(seed = 1L) () =
  List.concat_map
    (fun (target : Target.t) ->
      let paper_row =
        try List.assoc target.Target.name paper_table3 with Not_found -> []
      in
      let satisfied = ref [] in
      List.mapi
        (fun i contract ->
          let paper = try List.nth paper_row i with _ -> "?" in
          let outcome =
            if
              List.exists
                (fun stronger -> Contract.permits_at_least contract stronger)
                !satisfied
            then Skipped
            else
              let cfg = Target.fuzzer_config ~seed contract target in
              match Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases budget) with
              | Fuzzer.Violation v, stats ->
                  Detected
                    { label = v.Violation.label;
                      test_cases = stats.Fuzzer.test_cases }
              | Fuzzer.No_violation, stats -> (
                  (* The "-var" leaks need a rare double-latency-race; show
                     the mechanism on the §6.3 gadget when the paper expects
                     one here. *)
                  let expect_var =
                    String.length paper > 4
                    && String.sub paper (String.length paper - 4) 4 = "-var"
                  in
                  match (expect_var, var_gadget_for target) with
                  | true, Some g -> (
                      match gadget_violation ~seed contract target g with
                      | Some v -> Gadget_demo { label = v.Violation.label }
                      | None ->
                          Not_detected { test_cases = stats.Fuzzer.test_cases })
                  | _ ->
                      let r =
                        Not_detected { test_cases = stats.Fuzzer.test_cases }
                      in
                      satisfied := contract :: !satisfied;
                      ignore r;
                      r)
          in
          { target; contract; outcome; paper })
        Contract.standard_ladder)
    Target.all

(* ------------------------------------------------------------------ *)
(* Table 4                                                             *)
(* ------------------------------------------------------------------ *)

type t4_cell = {
  row : string;
  column : string;
  budget : int;
  test_cases : int option list;
}

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

(* (row, column, contract, target) or None for the N/A cells. *)
let table4_setups : (string * string * Contract.t * Target.t) option list =
  [
    Some ("None", "V4", Contract.ct_seq, Target.target2);
    Some ("None", "V1", Contract.ct_seq, Target.target5);
    Some ("None", "MDS", Contract.ct_seq, Target.target7);
    Some ("None", "LVI", Contract.ct_seq, Target.target8);
    None (* V4 permitted, V4-type: N/A *);
    Some ("V4", "V1", Contract.ct_bpas, sky ~v4:false ar_mem_cb ~assist:false);
    Some ("V4", "MDS", Contract.ct_bpas, sky ~v4:false ar_mem ~assist:true);
    Some ("V4", "LVI", Contract.ct_bpas, coffee ar_mem);
    Some ("V1", "V4", Contract.ct_cond, sky ~v4:false ar_mem_cb ~assist:false);
    None (* V1 permitted, V1-type: N/A *);
    Some ("V1", "MDS", Contract.ct_cond, sky ~v4:true ar_mem_cb ~assist:true);
    Some ("V1", "LVI", Contract.ct_cond, coffee ar_mem_cb);
  ]

let table4 ?(runs = 10) ?(budget = 600) ?(seed = 1L) () =
  List.map
    (Option.map (fun (row, column, contract, target) ->
         let run r =
           let cfg =
             Target.fuzzer_config
               ~seed:(Int64.add seed (Int64.of_int (r * 7919)))
               contract target
           in
           match Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases budget) with
           | Fuzzer.Violation _, stats -> Some stats.Fuzzer.test_cases
           | Fuzzer.No_violation, _ -> None
         in
         { row; column; budget; test_cases = List.init runs (fun r -> run (r + 1)) }))
    table4_setups

(* A miss sorts after every detection and counts as the budget, so a
   median that takes one in is only a lower bound. *)
let t4_median c =
  let sorted =
    Array.of_list
      (List.sort Int.compare
         (List.map (Option.value ~default:max_int) c.test_cases))
  in
  let n = Array.length sorted in
  let middle = [ sorted.((n - 1) / 2); sorted.(n / 2) ] in
  ( float_of_int (List.fold_left (fun acc x -> acc + Int.min x c.budget) 0 middle)
    /. 2.,
    List.mem max_int middle )

(* ------------------------------------------------------------------ *)
(* Table 5                                                             *)
(* ------------------------------------------------------------------ *)

type t5_row = {
  gadget : Gadgets.t;
  runs : int;
  found : int;
  mean_inputs : float;
  median_inputs : int;
  min_inputs : int;
  max_inputs : int;
}

let gadget_target (g : Gadgets.t) =
  if g.Gadgets.needs_assist then
    if g.Gadgets.name = "lvi-null" then Target.target8 else Target.target7
  else if g.Gadgets.name = "spectre-v4" then Target.target2
  else Target.target5

let minimal_inputs ?(max_inputs = 32) ~seed contract target (g : Gadgets.t) =
  let cfg = Target.fuzzer_config ~seed contract target in
  let cpu = Cpu.create cfg.Fuzzer.uarch in
  let executor = Executor.create cpu cfg.Fuzzer.executor in
  let prng = Prng.create ~seed in
  let inputs = Input.generate_many prng ~entropy:2 ~n:max_inputs in
  let rec search n =
    if n > max_inputs then None
    else
      let prefix = List.filteri (fun i _ -> i < n) inputs in
      match Fuzzer.check_test_case cfg executor g.Gadgets.program prefix with
      | Ok (Some _) -> Some n
      | Ok None | Error _ -> search (n + 1)
  in
  search 2

let table5 ?(runs = 50) ?(max_inputs = 32) ?(seed = 1L) () =
  List.map
    (fun g ->
      let target = gadget_target g in
      let results =
        List.init runs (fun r ->
            minimal_inputs ~max_inputs
              ~seed:(Int64.add seed (Int64.of_int ((r * 31) + 5)))
              Contract.ct_seq target g)
      in
      let found = List.filter_map Fun.id results in
      let sorted = List.sort compare found in
      let n = List.length sorted in
      {
        gadget = g;
        runs;
        found = n;
        mean_inputs =
          float_of_int (List.fold_left ( + ) 0 sorted) /. float_of_int (max 1 n);
        median_inputs = (if n = 0 then 0 else List.nth sorted (n / 2));
        min_inputs = (match sorted with [] -> 0 | x :: _ -> x);
        max_inputs = (match List.rev sorted with [] -> 0 | x :: _ -> x);
      })
    Gadgets.table5

(* ------------------------------------------------------------------ *)
(* §6.4 — speculative store eviction                                   *)
(* ------------------------------------------------------------------ *)

type store_eviction_result = {
  cpu_name : string;
  violated : bool;
  label : string option;
}

let store_eviction_check ?(seed = 3L) () =
  let setups =
    [
      {
        Target.name = "Skylake";
        uarch = Uarch_config.skylake ~v4_patch:true;
        subsets = ar_mem_cb;
        threat = Attack.prime_probe;
        mem_pages = 1;
      };
      {
        Target.name = "Coffee Lake";
        uarch = { Uarch_config.coffee_lake with Uarch_config.name = "Coffee Lake" };
        subsets = ar_mem_cb;
        threat = Attack.prime_probe;
        mem_pages = 1;
      };
    ]
  in
  List.map
    (fun (target : Target.t) ->
      match
        gadget_violation ~seed Contract.ct_cond_no_spec_store target
          Gadgets.spec_store_eviction
      with
      | Some v ->
          {
            cpu_name = target.Target.uarch.Uarch_config.name;
            violated = true;
            label = Some v.Violation.label;
          }
      | None ->
          {
            cpu_name = target.Target.uarch.Uarch_config.name;
            violated = false;
            label = None;
          })
    setups

(* ------------------------------------------------------------------ *)
(* §6.6 — contract sensitivity                                         *)
(* ------------------------------------------------------------------ *)

let contract_sensitivity ?(seed = 4L) () =
  List.concat_map
    (fun (g : Gadgets.t) ->
      List.map
        (fun contract ->
          let v = gadget_violation ~seed contract Target.target5 g in
          (g.Gadgets.name, Contract.name contract, v <> None))
        [ Contract.ct_seq; Contract.arch_seq ])
    [ Gadgets.stt_nonspeculative; Gadgets.stt_speculative ]

(* ------------------------------------------------------------------ *)
(* §A.5.3 — throughput                                                 *)
(* ------------------------------------------------------------------ *)

type throughput = {
  seconds : float;
  test_cases : int;
  inputs : int;
  cases_per_hour : float;
}

let throughput ?(test_cases = 8000) ?(seed = 5L) () =
  let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target1 in
  let _, stats = Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases test_cases) in
  {
    seconds = stats.Fuzzer.elapsed_s;
    test_cases = stats.Fuzzer.test_cases;
    inputs = stats.Fuzzer.inputs_tested;
    cases_per_hour =
      float_of_int stats.Fuzzer.test_cases /. stats.Fuzzer.elapsed_s *. 3600.;
  }

(* ------------------------------------------------------------------ *)
(* Port-contention channel (extension)                                 *)
(* ------------------------------------------------------------------ *)

let port_channel_demo ?(seed = 12L) () =
  let with_threat threat = { Target.target5 with Target.threat } in
  List.map
    (fun ((g : Gadgets.t), threat) ->
      let v = gadget_violation ~seed Contract.ct_seq (with_threat threat) g in
      (g.Gadgets.name, Attack.threat_to_string threat, v <> None))
    [
      (Gadgets.spectre_v1_ports, Attack.prime_probe);
      (Gadgets.spectre_v1_ports, Attack.port_contention);
      (Gadgets.spectre_v1, Attack.prime_probe);
    ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

type ablation = {
  name : string;
  with_feature : string;
  without_feature : string;
  conclusion : string;
}

let describe = function
  | Some (v : Violation.t) -> "violation (" ^ v.Violation.label ^ ")"
  | None -> "no violation"

let check_gadget_with_executor ?(seed = 6L) contract (target : Target.t)
    executor_cfg g =
  let cfg = Target.fuzzer_config ~seed contract target in
  let cfg = { cfg with Fuzzer.executor = executor_cfg } in
  let cpu = Cpu.create cfg.Fuzzer.uarch in
  let executor = Executor.create cpu executor_cfg in
  let prng = Prng.create ~seed:(Int64.add seed 1L) in
  let inputs = Input.generate_many prng ~entropy:2 ~n:50 in
  match Fuzzer.check_test_case cfg executor g.Gadgets.program inputs with
  | Ok v -> v
  | Error _ -> None

let ablation_priming ?(seed = 6L) () =
  let base = Executor.default_config () in
  let cold = { base with Executor.reset_between_inputs = true } in
  let with_priming =
    check_gadget_with_executor ~seed Contract.ct_seq Target.target5 base
      Gadgets.spectre_v1_taken
  in
  let without =
    check_gadget_with_executor ~seed Contract.ct_seq Target.target5 cold
      Gadgets.spectre_v1_taken
  in
  {
    name = "priming (sequence context) vs cold state per input";
    with_feature = describe with_priming;
    without_feature = describe without;
    conclusion =
      "without priming the cold predictor never speculates into the taken \
       side, so the V1 leak goes undetected";
  }

let ablation_entropy ?(seed = 7L) () =
  List.map
    (fun entropy ->
      let prng = Prng.create ~seed in
      let gen_cfg =
        { Generator.default_cfg with Generator.subsets = ar_mem_cb }
      in
      let contract = Contract.ct_seq in
      let samples = 30 in
      let total = ref 0 and effective = ref 0 in
      for _ = 1 to samples do
        let prog = Generator.generate prng gen_cfg in
        let inputs = Input.generate_many prng ~entropy ~n:30 in
        match Program.flatten prog with
        | Error _ -> ()
        | Ok flat ->
            let prog = Revizor_emu.Compiled.of_flat flat in
            Option.iter
              (fun classes ->
                total := !total + List.length inputs;
                effective := !effective + Analyzer.effective_inputs classes)
              (model_classes contract prog inputs)
      done;
      (entropy, float_of_int !effective /. float_of_int (max 1 !total)))
    [ 1; 2; 4; 8; 16 ]

let ablation_noise_filtering ?(seed = 8L) () =
  (* A compliant target (Target 1) under injected measurement noise: count
     raw trace divergences with and without the union/outlier machinery. *)
  let count_divergences executor_cfg =
    let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target1 in
    let cpu = Cpu.create cfg.Fuzzer.uarch in
    let executor = Executor.create cpu executor_cfg in
    let prng = Prng.create ~seed in
    let divergences = ref 0 in
    for _ = 1 to 30 do
      let prog = Generator.generate prng cfg.Fuzzer.gen_cfg in
      let inputs = Input.generate_many prng ~entropy:2 ~n:20 in
      match Program.flatten prog with
      | Error _ -> ()
      | Ok flat -> (
          let prog = Revizor_emu.Compiled.of_flat flat in
          match model_classes Contract.ct_seq prog inputs with
          | None -> ()
          | Some classes -> (
              let htraces = Executor.htraces executor prog inputs in
              match Analyzer.find_violation classes htraces with
              | Some _ -> incr divergences
              | None -> ()))
    done;
    !divergences
  in
  let noise () = Some { Executor.flip_probability = 0.4; seed = 99L } in
  let filtered =
    { (Executor.default_config ()) with
      Executor.noise = noise (); measurement_reps = 7; outlier_min = 3 }
  in
  let unfiltered =
    { (Executor.default_config ()) with
      Executor.noise = noise (); measurement_reps = 1; outlier_min = 1 }
  in
  let with_f = count_divergences filtered in
  let without_f = count_divergences unfiltered in
  {
    name = "trace union + outlier discard vs single noisy measurement";
    with_feature = Printf.sprintf "%d/30 false divergences" with_f;
    without_feature = Printf.sprintf "%d/30 false divergences" without_f;
    conclusion =
      "repetition with outlier discard suppresses measurement noise that \
       otherwise produces spurious trace divergences on a compliant CPU";
  }

(* The V1 gadget on Target 5 under CT-COND, on 50 inputs: its contract
   classes and hardware traces, with the executor that measured them. *)
let v1_under_ct_cond ~seed =
  let cfg = Target.fuzzer_config ~seed Contract.ct_cond Target.target5 in
  let executor = Executor.create (Cpu.create cfg.Fuzzer.uarch) cfg.Fuzzer.executor in
  let inputs = Input.generate_many (Prng.create ~seed) ~entropy:2 ~n:50 in
  let prog = Revizor_emu.Compiled.of_program_exn Gadgets.spectre_v1.Gadgets.program in
  let classes =
    Fuzzer.classes_of (Model.ctraces ~stream:`First Contract.ct_cond prog inputs)
  in
  (executor, prog, inputs, classes, Executor.htraces executor prog inputs)

let ablation_equivalence ?(seed = 9L) () =
  (* V1 gadget under CT-COND: speculation is contract-permitted, but it
     executes inconsistently across priming contexts. The subset relation
     absorbs that; strict equality reports a false violation. *)
  let _, _, _, classes, htraces = v1_under_ct_cond ~seed in
  let subset = Analyzer.find_violation ~equivalence:`Subset classes htraces in
  let equal = Analyzer.find_violation ~equivalence:`Equal classes htraces in
  {
    name = "subset-relation trace equivalence vs strict equality";
    with_feature =
      (match subset with Some _ -> "false violation" | None -> "no violation");
    without_feature =
      (match equal with Some _ -> "false violation" | None -> "no violation");
    conclusion =
      "inconsistent speculation across contexts yields subset-related \
       traces; strict equality misreports them as violations";
  }

let ablation_swap_check ?(seed = 10L) () =
  (* Manufacture a context artifact: under strict trace equality the V1
     gadget's mispredict-or-not difference between same-data inputs looks
     like a violation; the swap check recognizes it as context-caused. *)
  let executor, prog, inputs, classes, htraces = v1_under_ct_cond ~seed in
  match Analyzer.find_violation ~equivalence:`Equal classes htraces with
  | None ->
      {
        name = "priming swap check vs none";
        with_feature = "no candidate to filter";
        without_feature = "no candidate to filter";
        conclusion = "no context artifact was produced in this run";
      }
  | Some cand ->
      let real =
        Executor.swap_check executor prog inputs cand.Analyzer.index_a
          cand.Analyzer.index_b
      in
      {
        name = "priming swap check vs none";
        with_feature =
          (if real then "kept (unexpected)" else "artifact dismissed");
        without_feature = "false violation reported";
        conclusion =
          "the divergence disappears when the two inputs exchange their \
           positions in the priming sequence, proving it was caused by the \
           microarchitectural context rather than the data";
      }

let ablation_speculation_window ?(seed = 13L) () =
  List.map
    (fun window ->
      let contract =
        Contract.make ~speculation_window:window Contract.Ct Contract.Cond
      in
      let v =
        gadget_violation ~seed contract Target.target5 Gadgets.spectre_v1
      in
      (window, v <> None))
    [ 0; 1; 2; 4; 8; 64; 250 ]

let ablation_feedback ?(seed = 11L) () =
  (* Start from a configuration too small to express V1 (a single basic
     block). Only the diversity-feedback growth can reach a detecting
     configuration. *)
  let tiny =
    {
      Generator.default_cfg with
      Generator.n_insts = 4;
      n_blocks = 1;
      subsets = ar_mem_cb;
    }
  in
  let run ~feedback =
    let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target5 in
    let cfg =
      {
        cfg with
        Fuzzer.gen_cfg = tiny;
        round_length = (if feedback then 15 else 10_000);
      }
    in
    match Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 400) with
    | Fuzzer.Violation v, stats ->
        Printf.sprintf "violation (%s) after %d test cases" v.Violation.label
          stats.Fuzzer.test_cases
    | Fuzzer.No_violation, stats ->
        Printf.sprintf "no violation in %d test cases" stats.Fuzzer.test_cases
  in
  {
    name = "diversity-guided generator growth vs fixed-size generation";
    with_feature = run ~feedback:true;
    without_feature = run ~feedback:false;
    conclusion =
      "a single-block configuration cannot contain a conditional branch; \
       only the coverage-driven growth reaches programs that can leak";
  }
