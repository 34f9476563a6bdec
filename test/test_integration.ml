(* End-to-end tests: the full MRT pipeline against the paper's expected
   outcomes — gadget × contract × target (Table 3 shape), §6.4, §6.6,
   fuzzing detection, verdicts on pool domains, the false-positive filters
   and the postprocessor. *)

open Revizor_isa
open Revizor_uarch
open Revizor

let check = Alcotest.check
let tc = Alcotest.test_case

(* Alcotest testable shorthands *)
let bool = Alcotest.bool
let int = Alcotest.int
let int64 = Alcotest.int64
let string = Alcotest.string
let _ = (bool, int, int64, string)

let pipeline ?(seed = 42L) ?(n_inputs = 50) contract target (g : Gadgets.t) =
  let cfg = Target.fuzzer_config ~seed contract target in
  let cpu = Cpu.create cfg.Fuzzer.uarch in
  let executor = Executor.create cpu cfg.Fuzzer.executor in
  let prng = Prng.create ~seed:7L in
  let inputs = Input.generate_many prng ~entropy:2 ~n:n_inputs in
  match Fuzzer.check_test_case cfg executor g.Gadgets.program inputs with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s faulted: %s" g.Gadgets.name e

let expect_violation ?seed ?n_inputs ~label contract target g =
  match pipeline ?seed ?n_inputs contract target g with
  | Some v ->
      check string
        (Printf.sprintf "%s vs %s label" g.Gadgets.name (Contract.name contract))
        label v.Violation.label
  | None ->
      Alcotest.failf "%s vs %s: expected a violation" g.Gadgets.name
        (Contract.name contract)

let expect_compliant ?seed ?n_inputs contract target g =
  match pipeline ?seed ?n_inputs contract target g with
  | None -> ()
  | Some v ->
      Alcotest.failf "%s vs %s: unexpected violation %s" g.Gadgets.name
        (Contract.name contract) (Violation.summary v)

(* --- Table 3 shape on gadgets ------------------------------------------ *)

let table3_shape_tests =
  [
    tc "V1 violates CT-SEQ, complies with CT-COND" `Quick (fun () ->
        expect_violation ~label:"V1" Contract.ct_seq Target.target5 Gadgets.spectre_v1;
        expect_violation ~label:"V1" Contract.ct_bpas Target.target5 Gadgets.spectre_v1;
        expect_compliant Contract.ct_cond Target.target5 Gadgets.spectre_v1;
        expect_compliant Contract.ct_cond_bpas Target.target5 Gadgets.spectre_v1);
    tc "V1.1 violates CT-SEQ" `Quick (fun () ->
        expect_violation ~label:"V1" Contract.ct_seq Target.target5 Gadgets.spectre_v1_1);
    tc "V4 violates CT-SEQ, complies with CT-BPAS and under the patch" `Quick
      (fun () ->
        expect_violation ~label:"V4" Contract.ct_seq Target.target2 Gadgets.spectre_v4;
        expect_compliant Contract.ct_bpas Target.target2 Gadgets.spectre_v4;
        (* Target 4 = V4 patch on *)
        expect_compliant Contract.ct_seq Target.target4 Gadgets.spectre_v4);
    tc "V1-var violates even CT-COND (latency race, §6.3)" `Quick (fun () ->
        expect_violation ~label:"V1-var" Contract.ct_cond Target.target6
          Gadgets.spectre_v1_var;
        expect_violation ~label:"V1-var" Contract.ct_cond_bpas Target.target6
          Gadgets.spectre_v1_var);
    tc "V4-var violates even CT-BPAS (latency race, §6.3)" `Quick (fun () ->
        expect_violation ~label:"V4-var" Contract.ct_bpas Target.target3
          Gadgets.spectre_v4_var);
    tc "ret2spec violates CT-SEQ with very few inputs" `Quick (fun () ->
        expect_violation ~label:"ret2spec" ~n_inputs:4 Contract.ct_seq Target.target5
          Gadgets.ret2spec);
    tc "V2 (BTB injection, extension) violates CT-SEQ" `Quick (fun () ->
        expect_violation ~label:"V2" Contract.ct_seq Target.target5
          Gadgets.spectre_v2);
    tc "port channel sees the memory-free V1 (extension)" `Quick (fun () ->
        match Experiments.port_channel_demo () with
        | [ (_, _, pp_blind); (_, _, port_sees); (_, _, pp_v1) ] ->
            check bool "prime+probe blind to v1-ports" false pp_blind;
            check bool "port channel detects v1-ports" true port_sees;
            check bool "prime+probe still sees plain v1" true pp_v1
        | _ -> Alcotest.fail "three results expected");
    tc "MDS on Skylake with assists (Target 7)" `Quick (fun () ->
        expect_violation ~label:"MDS" Contract.ct_seq Target.target7 Gadgets.mds_lfb;
        expect_violation ~label:"MDS" Contract.ct_seq Target.target7 Gadgets.mds_sb;
        expect_violation ~label:"MDS" Contract.ct_cond_bpas Target.target7
          Gadgets.mds_lfb);
    tc "MDS patch stops fill-buffer leaks (Target 8)" `Quick (fun () ->
        expect_compliant Contract.ct_seq Target.target8 Gadgets.mds_lfb;
        expect_compliant Contract.ct_seq Target.target8 Gadgets.mds_sb);
    tc "LVI-Null on the MDS-patched part only" `Quick (fun () ->
        expect_violation ~label:"LVI-Null" Contract.ct_seq Target.target8
          Gadgets.lvi_null;
        expect_compliant Contract.ct_seq Target.target7 Gadgets.lvi_null);
    tc "AR-only target is compliant (Target 1 baseline)" `Quick (fun () ->
        let cfg = Target.fuzzer_config ~seed:3L Contract.ct_seq Target.target1 in
        match Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 40) with
        | Fuzzer.No_violation, stats ->
            check int "no candidates survive" 0
              (stats.Fuzzer.candidates - stats.Fuzzer.dismissed_by_swap
             - stats.Fuzzer.dismissed_by_nesting)
        | Fuzzer.Violation v, _ ->
            Alcotest.failf "false positive on Target 1: %s" (Violation.summary v));
  ]

(* --- §6.4 / §6.6 ---------------------------------------------------------- *)

let coffee_pp =
  {
    Target.target8 with
    Target.threat = Attack.prime_probe;
    subsets = [ Catalog.AR; Catalog.MEM; Catalog.CB ];
    mem_pages = 1;
  }

let assumption_tests =
  [
    tc "§6.4: speculative store eviction on Coffee Lake only" `Quick (fun () ->
        expect_violation ~label:"spec-store-eviction"
          Contract.ct_cond_no_spec_store coffee_pp Gadgets.spec_store_eviction;
        expect_compliant Contract.ct_cond_no_spec_store Target.target5
          Gadgets.spec_store_eviction;
        (* plain CT-COND permits the exposure, so no violation anywhere *)
        expect_compliant Contract.ct_cond coffee_pp Gadgets.spec_store_eviction);
    tc "§6.6: ARCH-SEQ distinguishes the STT gadgets" `Quick (fun () ->
        expect_violation ~label:"V1" Contract.ct_seq Target.target5
          Gadgets.stt_nonspeculative;
        expect_compliant Contract.arch_seq Target.target5 Gadgets.stt_nonspeculative;
        expect_violation ~label:"V1" Contract.ct_seq Target.target5
          Gadgets.stt_speculative;
        expect_violation ~label:"V1" Contract.arch_seq Target.target5
          Gadgets.stt_speculative);
    tc "experiments driver agrees (§6.4)" `Quick (fun () ->
        match Experiments.store_eviction_check () with
        | [ sky; cl ] ->
            check bool "skylake compliant" false sky.Experiments.violated;
            check bool "coffee lake violated" true cl.Experiments.violated
        | _ -> Alcotest.fail "two results expected");
    tc "experiments driver agrees (§6.6)" `Quick (fun () ->
        let r = Experiments.contract_sensitivity () in
        let find g c = List.exists (fun (g', c', v) -> g' = g && c' = c && v) r in
        check bool "6a ct-seq" true (find "stt-nonspeculative" "CT-SEQ");
        check bool "6a arch-seq" false (find "stt-nonspeculative" "ARCH-SEQ");
        check bool "6b ct-seq" true (find "stt-speculative" "CT-SEQ");
        check bool "6b arch-seq" true (find "stt-speculative" "ARCH-SEQ"));
  ]

(* --- Fuzzing ------------------------------------------------------------------ *)

let fuzz_tests =
  [
    tc "random fuzzing finds V1 on Target 5" `Slow (fun () ->
        let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target5 in
        match Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 300) with
        | Fuzzer.Violation v, stats ->
            check string "label" "V1" v.Violation.label;
            check bool "within budget" true (stats.Fuzzer.test_cases <= 300)
        | Fuzzer.No_violation, _ -> Alcotest.fail "V1 not found in 300 test cases");
    tc "fuzzing is deterministic per seed" `Slow (fun () ->
        let run () =
          let cfg = Target.fuzzer_config ~seed:11L Contract.ct_seq Target.target5 in
          match Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 150) with
          | Fuzzer.Violation v, stats ->
              (Some v.Violation.label, stats.Fuzzer.test_cases)
          | Fuzzer.No_violation, stats -> (None, stats.Fuzzer.test_cases)
        in
        let a = run () and b = run () in
        check bool "same outcome" true (a = b));
    (* A test case lives and dies in the minor heap: a campaign promotes
       a small share of the words it allocates. A forced minor collection
       (an [Array.of_list] or [Array.map] of young values into an array
       above 256 words) or a dead major-heap array still pointing at young
       values promotes the whole test case in flight, which puts the share
       near 0.15. *)
    tc "campaigns stop promoting their test cases" `Slow (fun () ->
        List.iter
          (fun (name, contract, target) ->
            let cfg =
              {
                (Target.fuzzer_config ~seed:1L contract target) with
                Fuzzer.n_inputs = 300;
              }
            in
            (* The counters advance at minor collections: one on each side
               makes them cover exactly the campaign. *)
            Gc.minor ();
            let g0 = Gc.quick_stat () in
            ignore (Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 30));
            Gc.minor ();
            let g1 = Gc.quick_stat () in
            let minor = g1.Gc.minor_words -. g0.Gc.minor_words
            and promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
            let share = promoted /. minor in
            check bool
              (Printf.sprintf "%s: promoted %.0f of %.0f minor words (%.3f)" name
                 promoted minor share)
              true (share <= 0.08))
          [
            ("Target 1 x CT-SEQ", Contract.ct_seq, Target.target1);
            ("Target 5 x CT-COND", Contract.ct_cond, Target.target5);
          ]);
    (* The output check perfbench applies to detect-table4: every
       violation a Table 4 campaign finds carries its cell's label and is
       still one, with that label, when its test case is re-checked on a
       fresh CPU, a fresh executor and freshly allocated (not pooled)
       templates. Two seeds per cell, by Experiments.table4's seed rule. *)
    tc "Table 4 violations carry their cell's label and re-verify" `Slow
      (fun () ->
        let found = ref 0 in
        List.iter
          (fun (row, column, contract, target) ->
            let expected = if column = "LVI" then "LVI-Null" else column in
            List.iter
              (fun r ->
                let seed = Int64.add 1L (Int64.of_int (r * 7919)) in
                let here = Printf.sprintf "%s/%s seed %Ld" row column seed in
                let cfg = Target.fuzzer_config ~seed contract target in
                match Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 150) with
                | Fuzzer.No_violation, _ -> ()
                | Fuzzer.Violation v, _ -> (
                    incr found;
                    check string (here ^ ": label") expected v.Violation.label;
                    let executor =
                      Executor.create (Cpu.create cfg.Fuzzer.uarch) cfg.Fuzzer.executor
                    in
                    match
                      Fuzzer.check_test_case cfg executor v.Violation.program
                        v.Violation.inputs
                    with
                    | Ok (Some v') ->
                        check string (here ^ ": re-checked label") expected
                          v'.Violation.label
                    | Ok None -> Alcotest.failf "%s: no violation on re-check" here
                    | Error e -> Alcotest.failf "%s: re-check failed: %s" here e))
              [ 1; 2 ])
          (List.filter_map Fun.id Experiments.table4_setups);
        (* 15 of the 20 campaigns detect; the check needs violations to
           look at *)
        check bool (Printf.sprintf "%d campaigns detect" !found) true (!found >= 10));
    tc "minimal inputs to violation are small (Table 5 shape)" `Quick (fun () ->
        match
          Experiments.minimal_inputs ~seed:21L Contract.ct_seq Target.target5
            Gadgets.ret2spec
        with
        | Some n -> check bool "tiny" true (n <= 4)
        | None -> Alcotest.fail "ret2spec not detected");
  ]

(* --- Parallel check stage: pool domains must not change verdicts -------------- *)

(* With executor_domains > 1 every test case is checked as a Pool future
   on whichever domain picks it up. The Table 3 gadgets cover every
   leakage mechanism of the simulated targets; their verdicts must be the
   same when checked concurrently on pool domains as when checked in
   sequence. *)
let parallel_check_tests =
  [
    tc "Table 3 verdicts are identical on pool domains 2/4" `Quick (fun () ->
        let cases =
          [
            (Contract.ct_seq, Target.target5, Gadgets.spectre_v1, 50);
            (Contract.ct_cond, Target.target5, Gadgets.spectre_v1, 50);
            (Contract.ct_seq, Target.target5, Gadgets.spectre_v1_1, 50);
            (Contract.ct_seq, Target.target2, Gadgets.spectre_v4, 50);
            (Contract.ct_bpas, Target.target2, Gadgets.spectre_v4, 50);
            (Contract.ct_seq, Target.target4, Gadgets.spectre_v4, 50);
            (Contract.ct_cond, Target.target6, Gadgets.spectre_v1_var, 50);
            (Contract.ct_bpas, Target.target3, Gadgets.spectre_v4_var, 50);
            (Contract.ct_seq, Target.target5, Gadgets.ret2spec, 4);
            (Contract.ct_seq, Target.target5, Gadgets.spectre_v2, 50);
            (Contract.ct_seq, Target.target7, Gadgets.mds_lfb, 50);
            (Contract.ct_seq, Target.target8, Gadgets.mds_sb, 50);
            (Contract.ct_seq, Target.target8, Gadgets.lvi_null, 50);
            (Contract.ct_seq, Target.target7, Gadgets.lvi_null, 50);
          ]
        in
        let verdict (contract, target, g, n_inputs) () =
          Option.map
            (fun v -> v.Violation.label)
            (pipeline ~n_inputs contract target g)
        in
        let reference = List.map (fun c -> verdict c ()) cases in
        check bool "some violations" true (List.exists Option.is_some reference);
        check bool "some compliant" true (List.exists Option.is_none reference);
        List.iter
          (fun n ->
            let pool = Pool.create n in
            Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
            let futures = List.map (fun c -> Pool.spawn pool (verdict c)) cases in
            check
              Alcotest.(list (option string))
              (Printf.sprintf "pool %d" n) reference
              (List.map (Pool.await pool) futures))
          [ 2; 4 ]);
  ]

(* --- Postprocessor ------------------------------------------------------------- *)

let postprocessor_tests =
  [
    tc "minimization preserves the violation and shrinks the test case" `Slow
      (fun () ->
        (* pad the V1 gadget with junk, then minimize *)
        let junk =
          [
            Instruction.binop Opcode.Add (Operand.reg Reg.RDX) (Operand.imm 17);
            Instruction.binop Opcode.Xor (Operand.reg Reg.RDX) (Operand.imm 3);
            Instruction.nop;
          ]
        in
        let padded =
          Program.make
            (List.map
               (fun (b : Program.block) ->
                 if b.Program.label = "main" then
                   { b with Program.insts = junk @ b.Program.insts }
                 else b)
               Gadgets.spectre_v1.Gadgets.program.Program.blocks)
        in
        let cfg = Target.fuzzer_config ~seed:5L Contract.ct_seq Target.target5 in
        let cpu = Cpu.create cfg.Fuzzer.uarch in
        let executor = Executor.create cpu cfg.Fuzzer.executor in
        let prng = Prng.create ~seed:7L in
        let inputs = Input.generate_many prng ~entropy:2 ~n:40 in
        match Fuzzer.check_test_case cfg executor padded inputs with
        | Error e -> Alcotest.fail e
        | Ok None -> Alcotest.fail "padded gadget must violate"
        | Ok (Some v) ->
            let m = Postprocessor.minimize cfg executor v in
            check bool "fewer instructions" true
              (Program.num_insts m.Postprocessor.program < Program.num_insts padded);
            check bool "fewer inputs" true
              (List.length m.Postprocessor.inputs < List.length inputs);
            check bool "still violates" true
              (Postprocessor.still_violates cfg executor m.Postprocessor.program
                 m.Postprocessor.inputs);
            (* the fenced variant keeps the violation and contains fences *)
            check bool "fences inserted" true
              (List.exists
                 (fun i -> i.Instruction.opcode = Opcode.Lfence)
                 (Program.instructions m.Postprocessor.fenced)));
    tc "a fence in the leak region kills the violation" `Quick (fun () ->
        let fenced =
          Program.make
            (List.map
               (fun (b : Program.block) ->
                 if b.Program.label = "leak" then
                   { b with Program.insts = Instruction.lfence :: b.Program.insts }
                 else b)
               Gadgets.spectre_v1.Gadgets.program.Program.blocks)
        in
        let cfg = Target.fuzzer_config ~seed:5L Contract.ct_seq Target.target5 in
        let cpu = Cpu.create cfg.Fuzzer.uarch in
        let executor = Executor.create cpu cfg.Fuzzer.executor in
        let prng = Prng.create ~seed:7L in
        let inputs = Input.generate_many prng ~entropy:2 ~n:40 in
        match Fuzzer.check_test_case cfg executor fenced inputs with
        | Ok None -> ()
        | Ok (Some _) -> Alcotest.fail "fence should stop the leak"
        | Error e -> Alcotest.fail e);
  ]

(* --- Filters ---------------------------------------------------------------------- *)

let filter_tests =
  [
    tc "ablation: priming is required for taken-side leaks" `Quick (fun () ->
        let a = Experiments.ablation_priming () in
        check bool "with priming detects" true
          (String.length a.Experiments.with_feature > 0
          && String.sub a.Experiments.with_feature 0 9 = "violation");
        check string "without priming silent" "no violation"
          a.Experiments.without_feature);
    tc "ablation: subset equivalence avoids false positives" `Quick (fun () ->
        let a = Experiments.ablation_equivalence () in
        check string "subset" "no violation" a.Experiments.with_feature;
        check string "equality" "false violation" a.Experiments.without_feature);
    tc "ablation: noise filtering" `Quick (fun () ->
        let a = Experiments.ablation_noise_filtering () in
        check string "filtered" "0/30 false divergences" a.Experiments.with_feature;
        check bool "unfiltered sees noise" true
          (a.Experiments.without_feature <> "0/30 false divergences"));
    tc "entropy sweep: effectiveness collapses at high entropy" `Quick (fun () ->
        let sweep = Experiments.ablation_entropy () in
        let eff e = List.assoc e sweep in
        check bool "low entropy effective" true (eff 1 > 0.5);
        check bool "high entropy ineffective" true (eff 16 < eff 2));
  ]

let () =
  Alcotest.run "integration"
    [
      ("table3_shape", table3_shape_tests);
      ("assumptions", assumption_tests);
      ("fuzzing", fuzz_tests);
      ("parallel_check", parallel_check_tests);
      ("postprocessor", postprocessor_tests);
      ("filters", filter_tests);
    ]
