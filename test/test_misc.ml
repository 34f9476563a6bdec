(* Additional coverage: results persistence, target presets, report
   rendering, the swap check driven directly, nested-speculation modelling
   and the experiments drivers. *)

open Revizor_isa
open Revizor_uarch
open Revizor

let check = Alcotest.check
let tc = Alcotest.test_case
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string
let _ = (bool, int, string)

(* --- Results persistence -------------------------------------------- *)

let find_violation_for g contract target =
  let cfg = Target.fuzzer_config ~seed:42L contract target in
  let cpu = Cpu.create cfg.Fuzzer.uarch in
  let executor = Executor.create cpu cfg.Fuzzer.executor in
  let prng = Prng.create ~seed:7L in
  let inputs = Input.generate_many prng ~entropy:2 ~n:50 in
  match Fuzzer.check_test_case cfg executor g.Gadgets.program inputs with
  | Ok (Some v) -> (cfg, executor, v)
  | Ok None -> Alcotest.fail "expected a violation to persist"
  | Error e -> Alcotest.fail e

let results_tests =
  [
    tc "input line roundtrip" `Quick (fun () ->
        let i = { Input.seed = 0x1234_5678_9ABCL; entropy = 3 } in
        match Results.input_of_line (Results.input_to_line i) with
        | Ok i' -> check bool "equal" true (Input.equal i i')
        | Error e -> Alcotest.fail e);
    tc "input line rejects junk" `Quick (fun () ->
        check bool "junk" true (Result.is_error (Results.input_of_line "nonsense"));
        check bool "partial" true
          (Result.is_error (Results.input_of_line "seed=xx entropy=2")));
    tc "saved violations reload and still violate" `Quick (fun () ->
        Support.with_tmpdir "results" (fun dir ->
            let cfg, executor, v =
              find_violation_for Gadgets.spectre_v1 Contract.ct_seq Target.target5
            in
            Results.save_violation ~stats:(Fuzzer.fresh_stats ())
              ~ucoverage:(Ucoverage.create ()) ~dir v;
            check bool "asm exists" true
              (Sys.file_exists (Filename.concat dir "violation.asm"));
            let program =
              match Results.load_program (Filename.concat dir "violation.asm") with
              | Ok p -> p
              | Error e -> Alcotest.fail e
            in
            let inputs =
              match Results.load_inputs (Filename.concat dir "inputs.txt") with
              | Ok l -> l
              | Error e -> Alcotest.fail e
            in
            check int "same number of inputs" (List.length v.Violation.inputs)
              (List.length inputs);
            match Fuzzer.check_test_case cfg executor program inputs with
            | Ok (Some v') ->
                check string "same label" v.Violation.label v'.Violation.label
            | Ok None -> Alcotest.fail "reloaded case no longer violates"
            | Error e -> Alcotest.fail e));
  ]

(* --- Target presets ---------------------------------------------------- *)

let target_tests =
  [
    tc "Table 2 structure" `Quick (fun () ->
        check int "eight targets" 8 (List.length Target.all);
        let v4_off t = not t.Target.uarch.Uarch_config.v4_patch in
        check bool "targets 1-3 unpatched" true
          (List.for_all v4_off [ Target.target1; Target.target2; Target.target3 ]);
        check bool "targets 4-8 patched" true
          (List.for_all
             (fun t -> t.Target.uarch.Uarch_config.v4_patch)
             [ Target.target4; Target.target5; Target.target6; Target.target7; Target.target8 ]);
        check bool "assist mode on 7 and 8" true
          (Target.target7.Target.threat.Attack.assist
          && Target.target8.Target.threat.Attack.assist);
        check bool "coffee lake only on 8" true
          Target.target8.Target.uarch.Uarch_config.mds_patch);
    tc "find by name" `Quick (fun () ->
        check bool "found" true (Target.find "Target 3" = Some Target.target3);
        check bool "case insensitive" true (Target.find "target 3" = Some Target.target3);
        check bool "missing" true (Target.find "Target 9" = None));
  ]

(* --- Report rendering ---------------------------------------------------- *)

let report_tests =
  [
    tc "render_table aligns columns" `Quick (fun () ->
        let t =
          Report.render_table ~header:[ "a"; "bb" ]
            [ [ "xxx"; "y" ]; [ "z"; "wwww" ] ]
        in
        let lines = String.split_on_char '\n' t in
        check int "four lines" 4 (List.length lines);
        check bool "all same width" true
          (match lines with
          | first :: rest ->
              List.for_all (fun l -> String.length l = String.length first) rest
          | [] -> false));
    tc "t3 outcome strings" `Quick (fun () ->
        check string "detected" "V (V1, 10 tcs)"
          (Report.t3_outcome_to_string
             (Experiments.Detected { label = "V1"; test_cases = 10 }));
        check string "skipped" "x*" (Report.t3_outcome_to_string Experiments.Skipped);
        check string "gadget" "V (V4-var, gadget)"
          (Report.t3_outcome_to_string (Experiments.Gadget_demo { label = "V4-var" })));
  ]

(* --- Analyzer pair exclusion ------------------------------------------------ *)

let exclusion_tests =
  [
    tc "excluded pairs are skipped, later pairs still found" `Quick (fun () ->
        let cls = { Analyzer.ctrace = Ctrace.empty; members = [ 0; 1; 2 ] } in
        let h = Htrace.of_list in
        (* 0-1 incomparable, 0-2 incomparable, 1-2 comparable (subset) *)
        let traces = [| h [ 1 ]; h [ 2 ]; h [ 2; 3 ] |] in
        (match Analyzer.check_class cls traces with
        | Some (0, 1) -> ()
        | _ -> Alcotest.fail "expected (0,1) first");
        (match Analyzer.check_class ~excluding:[ (0, 1) ] cls traces with
        | Some (0, 2) -> ()
        | _ -> Alcotest.fail "expected (0,2) after exclusion");
        (* exclusion is order-insensitive *)
        (match Analyzer.check_class ~excluding:[ (1, 0); (2, 0) ] cls traces with
        | Some (1, 2) -> Alcotest.fail "1-2 are comparable"
        | Some _ -> Alcotest.fail "unexpected pair"
        | None -> ()));
  ]

(* --- Postprocessor stages individually --------------------------------------- *)

let postprocessor_stage_tests =
  [
    tc "input minimization keeps a violating subsequence" `Quick (fun () ->
        let cfg, executor, v =
          find_violation_for Gadgets.spectre_v1 Contract.ct_seq Target.target5
        in
        let m = Postprocessor.minimize cfg executor v in
        check bool "non-trivial shrink" true
          (List.length m.Postprocessor.inputs < List.length v.Violation.inputs);
        check bool "at least a pair" true (List.length m.Postprocessor.inputs >= 2));
    tc "minimized gadget keeps the leak instructions" `Quick (fun () ->
        (* the V1 gadget is already near-minimal: minimization must not
           destroy the branch or the transient load *)
        let cfg, executor, v =
          find_violation_for Gadgets.spectre_v1 Contract.ct_seq Target.target5
        in
        let m = Postprocessor.minimize cfg executor v in
        let ops =
          List.map (fun i -> i.Instruction.opcode)
            (Program.instructions m.Postprocessor.program)
        in
        check bool "keeps a conditional branch" true
          (List.exists (function Opcode.Jcc _ -> true | _ -> false) ops);
        check bool "keeps a load" true
          (List.exists Instruction.loads (Program.instructions m.Postprocessor.program)));
  ]

(* --- Parser edges -------------------------------------------------------------- *)

let parser_edge_tests =
  [
    tc "call/ret programs roundtrip" `Quick (fun () ->
        let p = Gadgets.ret2spec.Gadgets.program in
        match Asm_parser.parse_program (Program.to_string p) with
        | Ok p' -> check string "same text" (Program.to_string p) (Program.to_string p')
        | Error e -> Alcotest.fail e);
    tc "all gadget programs roundtrip through the parser" `Quick (fun () ->
        List.iter
          (fun (g : Gadgets.t) ->
            match Asm_parser.parse_program (Program.to_string g.Gadgets.program) with
            | Ok p' ->
                check string g.Gadgets.name
                  (Program.to_string g.Gadgets.program)
                  (Program.to_string p')
            | Error e -> Alcotest.failf "%s: %s" g.Gadgets.name e)
          Gadgets.all);
    tc "negative displacement and rsp-relative operands" `Quick (fun () ->
        match Asm_parser.parse_instruction "ADD qword ptr [RSP - 8], 2" with
        | Ok i ->
            check string "printed" "ADD qword ptr [RSP - 8], 2"
              (Instruction.to_string i)
        | Error e -> Alcotest.fail e);
  ]

(* --- ARCH observation on speculative paths -------------------------------------- *)

let arch_cond_tests =
  [
    tc "ARCH-COND exposes speculatively loaded values" `Quick (fun () ->
        let arch_cond = Contract.make Contract.Arch Contract.Cond in
        let g = Gadgets.stt_speculative in
        let flat = Revizor_emu.Compiled.of_program_exn g.Gadgets.program in
        let prng = Prng.create ~seed:31L in
        (* an input that architecturally skips the leak block *)
        let input =
          List.find
            (fun i ->
              let s = Input.to_state i in
              Revizor_emu.Word.ult 64L
                (Revizor_emu.Memory.read s.Revizor_emu.State.mem
                   ~addr:Revizor_emu.Layout.sandbox_base Width.W64))
            (Input.generate_many prng ~entropy:2 ~n:60)
        in
        let seq = Model.run Contract.arch_seq flat input in
        let cond = Model.run arch_cond flat input in
        let values t =
          List.length
            (List.filter
               (function Ctrace.Value _ -> true | _ -> false)
               (Ctrace.to_list t))
        in
        (* the architectural flag load contributes one value; only the
           COND exploration adds the speculative ones *)
        check int "arch-seq sees only the architectural value" 1
          (values seq.Model.ctrace);
        check bool "arch-cond sees the speculative loads too" true
          (values cond.Model.ctrace > values seq.Model.ctrace));
  ]

(* --- Swap check, driven directly ------------------------------------------- *)

let swap_tests =
  [
    tc "a real violation survives the swap check" `Quick (fun () ->
        let _, executor, v =
          find_violation_for Gadgets.spectre_v1 Contract.ct_seq Target.target5
        in
        let flat = Revizor_emu.Compiled.of_program_exn v.Violation.program in
        check bool "survives" true
          (Executor.swap_check executor flat v.Violation.inputs
             v.Violation.index_a v.Violation.index_b));
  ]

(* --- Channel equivalence (§6.1 note) -------------------------------------------- *)

let run_with_threat target contract g =
  let cfg = Target.fuzzer_config ~seed:42L contract target in
  let cpu = Cpu.create cfg.Fuzzer.uarch in
  let executor = Executor.create cpu cfg.Fuzzer.executor in
  let prng = Prng.create ~seed:7L in
  let inputs = Input.generate_many prng ~entropy:2 ~n:50 in
  match Fuzzer.check_test_case cfg executor g.Gadgets.program inputs with
  | Ok v -> v
  | Error e -> Alcotest.fail e

let channel_tests =
  [
    tc "flush+reload and evict+reload detect what prime+probe does" `Quick
      (fun () ->
        (* the paper notes F+R/E+R produce equivalent traces for a 4KB
           sandbox: 64 sets map 1:1 onto the monitored lines *)
        List.iter
          (fun threat ->
            let target = { Target.target5 with Target.threat } in
            match
              run_with_threat target Contract.ct_seq Gadgets.spectre_v1
            with
            | Some v -> check string (Attack.threat_to_string threat) "V1" v.Violation.label
            | None ->
                Alcotest.failf "%s missed the V1 leak"
                  (Attack.threat_to_string threat))
          [ Attack.prime_probe; Attack.flush_reload; Attack.evict_reload ]);
  ]

(* --- Executor determinism under assists -------------------------------------------- *)

let assist_determinism_tests =
  [
    tc "assist-mode measurements are reproducible across sessions" `Quick
      (fun () ->
        let flat = Revizor_emu.Compiled.of_program_exn Gadgets.mds_lfb.Gadgets.program in
        let measure () =
          let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
          let ex =
            Executor.create cpu
              (Executor.default_config ~threat:Attack.prime_probe_assist ())
          in
          let prng = Prng.create ~seed:77L in
          Executor.htraces ex flat (Input.generate_many prng ~entropy:2 ~n:20)
        in
        let a = measure () and b = measure () in
        check bool "identical traces" true (Array.for_all2 Htrace.equal a b));
  ]

(* --- Nested speculation in the model ------------------------------------------ *)

(* Two nested mispredictable branches; the innermost load is only reachable
   when both explorations nest. *)
let nested_program =
  let open Instruction in
  Program.make
    [
      Program.block "main"
        [
          binop Opcode.Cmp (Operand.reg Reg.RBX) (Operand.imm 10);
          jcc Cond.AE "exit";
        ];
      Program.block "mid"
        [
          binop Opcode.Cmp (Operand.reg Reg.RCX) (Operand.imm 10);
          jcc Cond.AE "exit";
        ];
      Program.block "inner"
        [ mov (Operand.reg Reg.RDX) (Operand.sandbox ~disp:0x300 Reg.RAX) ];
      Program.block "exit" [];
    ]

let nesting_tests =
  [
    tc "nesting explores deeper speculative paths" `Quick (fun () ->
        let flat = Revizor_emu.Compiled.of_program_exn nested_program in
        let prng = Prng.create ~seed:17L in
        (* an input where both branches are architecturally taken (both
           registers >= 10), so the inner load is two mispredictions deep *)
        let input =
          List.find
            (fun i ->
              let s = Revizor_emu.State.create () in
              Input.apply i s;
              Revizor_emu.State.get_reg s Reg.RBX Width.W64 >= 10L
              && Revizor_emu.State.get_reg s Reg.RCX Width.W64 >= 10L)
            (Input.generate_many prng ~entropy:2 ~n:60)
        in
        let flat_obs contract =
          Ctrace.length (Model.run contract flat input).Model.ctrace
        in
        let plain = flat_obs Contract.mem_cond in
        let nested = flat_obs (Contract.with_nesting Contract.mem_cond) in
        check int "flat exploration sees no load" 0 plain;
        check bool "nested exploration reaches the inner load" true (nested > plain));
  ]

(* --- Experiments drivers (smoke) ------------------------------------------------ *)

let experiment_tests =
  [
    tc "throughput driver reports a steady rate" `Quick (fun () ->
        let t = Experiments.throughput ~test_cases:50 ~seed:2L () in
        check bool "ran some cases" true (t.Experiments.test_cases > 3);
        check int "ran its budget" 50 t.Experiments.test_cases;
        check bool "rate positive" true (t.Experiments.cases_per_hour > 0.));
    tc "throughput counts repeat across runs" `Slow (fun () ->
        let run () = Experiments.throughput ~test_cases:200 () in
        let a = run () and b = run () in
        check int "test cases" a.Experiments.test_cases b.Experiments.test_cases;
        check int "inputs" a.Experiments.inputs b.Experiments.inputs);
    tc "minimal_inputs finds ret2spec at 2" `Quick (fun () ->
        match
          Experiments.minimal_inputs ~seed:5L Contract.ct_seq Target.target5
            Gadgets.ret2spec
        with
        | Some n -> check bool "small" true (n <= 3)
        | None -> Alcotest.fail "not found");
    tc "table5 row shape for ret2spec" `Quick (fun () ->
        let rows = Experiments.table5 ~runs:5 ~max_inputs:16 ~seed:3L () in
        let r2s =
          List.find
            (fun (r : Experiments.t5_row) ->
              r.Experiments.gadget.Gadgets.name = "ret2spec")
            rows
        in
        check int "all found" 5 r2s.Experiments.found;
        check bool "tiny input counts" true (r2s.Experiments.mean_inputs <= 4.));
    tc "table4 medians count misses at the budget" `Quick (fun () ->
        let cell test_cases =
          { Experiments.row = "None"; column = "V4"; budget = 600; test_cases }
        in
        (* Mostly misses: the two fastest runs alone would read 20. *)
        check string "median is a miss" ">600 tcs [2/5]"
          (Report.t4_cell_to_string (cell [ Some 10; None; Some 30; None; None ]));
        check string "one miss among the middle two" ">310 tcs [2/4]"
          (Report.t4_cell_to_string (cell [ None; Some 20; Some 10; None ]));
        check string "misses above the median" "50 tcs [2/3]"
          (Report.t4_cell_to_string (cell [ Some 50; None; Some 20 ]));
        check string "every run detects" "15.5 tcs [4/4]"
          (Report.t4_cell_to_string (cell [ Some 40; Some 11; Some 20; Some 2 ]));
        let table =
          Report.table4
            [ Some (cell [ Some 10; None; Some 30 ]); None;
              Some { (cell [ Some 7 ]) with Experiments.column = "MDS" } ]
        in
        let has sub =
          let n = String.length sub and m = String.length table in
          let rec go i = i + n <= m && (String.sub table i n = sub || go (i + 1)) in
          go 0
        in
        check bool "table shows the cell's median" true (has "30 tcs [2/3]");
        check bool "table shows the other cell" true (has "7 tcs [1/1]");
        check bool "table marks missing cells N/A" true (has "N/A"));
    tc "parallel fuzzing finds the same class of violation" `Slow (fun () ->
        let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target5 in
        let cfg = { cfg with Fuzzer.executor_domains = 2 } in
        match Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 400) with
        | Fuzzer.Violation v, _ -> check string "label" "V1" v.Violation.label
        | Fuzzer.No_violation, _ -> Alcotest.fail "parallel fuzz found nothing");
    tc "speculation-window sweep shape" `Quick (fun () ->
        let sweep = Experiments.ablation_speculation_window () in
        check bool "window 0 behaves like SEQ (violated)" true
          (List.assoc 0 sweep);
        check bool "full window compliant" false (List.assoc 250 sweep));
    tc "table3 skip logic follows the contract ordering" `Quick (fun () ->
        (* with a 1-test-case budget nothing is detected, so for every
           target the CT-SEQ cell is fuzzed and the more liberal contracts
           are skipped (the paper's x* convention) *)
        let cells = Experiments.table3 ~budget:1 ~seed:99L () in
        check int "32 cells" 32 (List.length cells);
        List.iter
          (fun (c : Experiments.t3_cell) ->
            match (Contract.name c.Experiments.contract, c.Experiments.outcome) with
            | "CT-SEQ", Experiments.Not_detected _ -> ()
            | "CT-SEQ", o ->
                Alcotest.failf "CT-SEQ cell should be fuzzed, got %s"
                  (Report.t3_outcome_to_string o)
            | _, (Experiments.Skipped | Experiments.Gadget_demo _ | Experiments.Not_detected _) -> ()
            | name, Experiments.Detected _ ->
                Alcotest.failf "unexpected detection for %s at budget 1" name)
          cells);
    tc "gadget catalog is well-formed" `Quick (fun () ->
        List.iter
          (fun (g : Gadgets.t) ->
            match Program.validate g.Gadgets.program with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: %s" g.Gadgets.name e)
          Gadgets.all;
        check bool "find works" true (Gadgets.find "spectre-v1" <> None);
        check bool "find missing" true (Gadgets.find "nope" = None);
        check int "table 5 has seven gadgets" 7 (List.length Gadgets.table5));
  ]

let () =
  Alcotest.run "misc"
    [
      ("results", results_tests);
      ("targets", target_tests);
      ("report", report_tests);
      ("swap_check", swap_tests);
      ("exclusion", exclusion_tests);
      ("postprocessor_stages", postprocessor_stage_tests);
      ("parser_edges", parser_edge_tests);
      ("arch_cond", arch_cond_tests);
      ("channels", channel_tests);
      ("assist_determinism", assist_determinism_tests);
      ("nesting", nesting_tests);
      ("experiments", experiment_tests);
    ]
