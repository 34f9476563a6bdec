(* Resilient campaign runtime (PR 5): checkpoint/resume bit-identity
   across seeds and pool sizes, config-fingerprint rejection, futures
   pool exception propagation, watchdog skips, deterministic fault
   injection (model stage, artifact writers), and the tolerant telemetry
   tail scanner. *)

open Revizor
module Json = Revizor_obs.Json
module Metrics = Revizor_obs.Metrics
module Telemetry = Revizor_obs.Telemetry
module Faultpoint = Revizor_obs.Faultpoint
module Atomic_file = Revizor_obs.Atomic_file

let check = Alcotest.check
let tc = Alcotest.test_case
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* Every fault-injection test disarms the global schedule on the way out,
   pass or fail: armed points leaking into later tests would make the
   whole binary order-dependent. *)
let with_faults ~seed points f =
  Faultpoint.enable ~seed points;
  Fun.protect ~finally:Faultpoint.disable f

let always = { Faultpoint.rate = 1.0; after = 0; max_fires = 0 }

(* --- PRNG state round-trip ------------------------------------------- *)

let test_prng_state_roundtrip () =
  let p = Prng.create ~seed:123L in
  for _ = 1 to 10 do
    ignore (Prng.int p 1000)
  done;
  let st = Prng.state p in
  let expected = List.init 20 (fun _ -> Prng.int p 1_000_000) in
  let q = Prng.of_state st in
  let got = List.init 20 (fun _ -> Prng.int q 1_000_000) in
  check (Alcotest.list int) "draw stream continues identically" expected got;
  (* set_state mid-life behaves like of_state *)
  Prng.set_state p st;
  let again = List.init 20 (fun _ -> Prng.int p 1_000_000) in
  check (Alcotest.list int) "set_state rewinds" expected again

(* --- checkpoint/resume bit-identity ---------------------------------- *)


(* Run the campaign uninterrupted, then as two segments joined by a
   checkpoint that round-trips through the Campaign JSON codec; every
   outcome and statistic must agree. *)
let split_run_identical ~seed ~domains ~total ~split =
  let cfg =
    {
      (Target.fuzzer_config ~seed Contract.ct_seq Target.target5) with
      Fuzzer.executor_domains = domains;
    }
  in
  let base_o, base_s = Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases total) in
  let last = ref None in
  let seg1_o, _ =
    Fuzzer.fuzz
      ~on_checkpoint:(fun s -> last := Some s)
      ~checkpoint_every:7 cfg
      ~budget:(Fuzzer.Test_cases split)
  in
  let label = Printf.sprintf "seed=%Ld domains=%d" seed domains in
  match seg1_o with
  | Fuzzer.Violation _ ->
      (* The violation landed inside the first segment; the full run must
         have found the same one. *)
      check string (label ^ ": early violation matches")
        (Support.outcome_fingerprint base_o) (Support.outcome_fingerprint seg1_o)
  | Fuzzer.No_violation -> (
      match !last with
      | None -> Alcotest.failf "%s: no checkpoint emitted" label
      | Some snap -> (
          match Campaign.of_json cfg (Campaign.to_json cfg snap) with
          | Error e -> Alcotest.failf "%s: codec round-trip: %s" label e
          | Ok snap ->
              let res_o, res_s =
                Fuzzer.fuzz ~resume:snap cfg ~budget:(Fuzzer.Test_cases total)
              in
              check string (label ^ ": outcome identical")
                (Support.outcome_fingerprint base_o)
                (Support.outcome_fingerprint res_o);
              check string (label ^ ": stats identical")
                (Support.stats_fingerprint base_s) (Support.stats_fingerprint res_s)))

let test_resume_bit_identical () =
  List.iter
    (fun seed ->
      List.iter
        (fun domains -> split_run_identical ~seed ~domains ~total:80 ~split:30)
        [ 1; 2; 4 ])
    [ 1L; 2L; 3L; 4L; 5L ]

let test_checkpoint_file_roundtrip () =
  let cfg = Target.fuzzer_config ~seed:3L Contract.ct_seq Target.target5 in
  let last = ref None in
  let _ =
    Fuzzer.fuzz
      ~on_checkpoint:(fun s -> last := Some s)
      cfg ~budget:(Fuzzer.Test_cases 10)
  in
  let snap = Option.get !last in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "revizor_ckpt_%d.json" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Campaign.save ~path cfg snap;
  (match Campaign.load ~path cfg with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok snap' ->
      check string "file round-trip"
        (Json.to_string (Campaign.to_json cfg snap))
        (Json.to_string (Campaign.to_json cfg snap')));
  (* A different configuration must be rejected, not silently resumed;
     so must loop state the campaign cannot reach (each of these crashed,
     hung or silently shortened the resumed run before the decoder
     checked the counters against each other). *)
  let has_sub sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (* [set path v j]: [j] with the field at [path] replaced by [v]. *)
  let rec set path v j =
    match (path, j) with
    | [], _ -> v
    | k :: rest, Json.Obj kvs ->
        Json.Obj
          (List.map (fun (k', v') -> if k' = k then (k, set rest v v') else (k', v')) kvs)
    | _ -> Alcotest.fail "checkpoint path is not an object"
  in
  let with_field k v = set (String.split_on_char '.' k) v (Campaign.to_json cfg snap) in
  List.iter
    (fun (what, cfg', doc, names) ->
      Atomic_file.write path (Json.to_string doc);
      match Campaign.load ~path cfg' with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error e ->
          check bool (Printf.sprintf "%s: error names %s" what names) true
            (has_sub names e))
    [
      ( "fingerprint mismatch", { cfg with Fuzzer.seed = 99L },
        Campaign.to_json cfg snap, "fingerprint" );
      ("negative n_inputs", cfg, with_field "n_inputs" (Json.Int (-1)), "n_inputs");
      ("n_inputs below the configured count", cfg,
        with_field "n_inputs" (Json.Int (cfg.Fuzzer.n_inputs - 1)), "n_inputs");
      ("n_inputs past the growth cap", cfg,
        with_field "n_inputs" (Json.Int (Fuzzer.grown_inputs_cap + 1)), "n_inputs");
      ("huge n_inputs", cfg, with_field "n_inputs" (Json.Int max_int), "n_inputs");
      ("no ISA subsets", cfg, with_field "gen_cfg.subsets" (Json.List []), "gen_cfg");
      ("huge n_blocks", cfg, with_field "gen_cfg.n_blocks" (Json.Int (1 lsl 40)), "gen_cfg");
      ("huge n_insts", cfg, with_field "gen_cfg.n_insts" (Json.Int (1 lsl 40)), "gen_cfg");
      ("negative test_cases", cfg,
        with_field "stats.test_cases" (Json.Int (-(1 lsl 40))), "test_cases");
      ("in_round outside the round", cfg,
        with_field "in_round" (Json.Int (-100000)), "in_round");
    ];
  (* Every checkpoint a real campaign writes satisfies those relations,
     across rounds and generator growths. *)
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target1 in
  let grown = ref 0 in
  let _ =
    Fuzzer.fuzz ~checkpoint_every:1
      ~on_checkpoint:(fun s ->
        grown := Int.max !grown s.Fuzzer.sn_stats.Fuzzer.growths;
        match Campaign.of_json cfg (Campaign.to_json cfg s) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "own checkpoint refused: %s" e)
      cfg ~budget:(Fuzzer.Test_cases 120)
  in
  check bool "the campaign grew its generator" true (!grown >= 2)

let test_fingerprint_sensitivity () =
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target5 in
  let fp = Campaign.fingerprint cfg in
  check bool "seed changes fingerprint" true
    (fp <> Campaign.fingerprint { cfg with Fuzzer.seed = 2L });
  check bool "entropy changes fingerprint" true
    (fp <> Campaign.fingerprint { cfg with Fuzzer.entropy = 3 });
  check bool "watchdog changes fingerprint" true
    (fp
    <> Campaign.fingerprint
         {
           cfg with
           Fuzzer.watchdog =
             { Watchdog.max_model_steps = 1234 };
         })

(* Fingerprints of every Table 2 target under every ladder contract
   (seed 1), plus two configs with a custom seed, input count and step
   budget, at the values checkpoints and fleet ledgers already carry:
   retiring a config field must not orphan a saved campaign. *)
let pinned_fingerprints =
  [
    ("Target 1", "CT-SEQ", "1bc96e37133ff8d0");
    ("Target 1", "CT-BPAS", "f4f9bb25eccadb17");
    ("Target 1", "CT-COND", "78c0b1837aebbc29");
    ("Target 1", "CT-COND-BPAS", "1b1814c6d2706dde");
    ("Target 2", "CT-SEQ", "3d87b275f343b576");
    ("Target 2", "CT-BPAS", "8c011a08d1be7371");
    ("Target 2", "CT-COND", "d39a7e4231e0177f");
    ("Target 2", "CT-COND-BPAS", "6f576ae8c578e1a8");
    ("Target 3", "CT-SEQ", "78497328a7a666d0");
    ("Target 3", "CT-BPAS", "12336f56191c617f");
    ("Target 3", "CT-COND", "e2191ba77495ebd9");
    ("Target 3", "CT-COND-BPAS", "b4824f52c95a994e");
    ("Target 4", "CT-SEQ", "e54b7a87ba26faa4");
    ("Target 4", "CT-BPAS", "f64c1fda98ab7a11");
    ("Target 4", "CT-COND", "1f034f52fc40ef9b");
    ("Target 4", "CT-COND-BPAS", "2bcc9a7352e4f95a");
    ("Target 5", "CT-SEQ", "0c5b5e4e877d8d90");
    ("Target 5", "CT-BPAS", "aad154663b5d28ab");
    ("Target 5", "CT-COND", "7ba79479cc590611");
    ("Target 5", "CT-COND-BPAS", "e54171b8b80d793a");
    ("Target 6", "CT-SEQ", "d87d00f3d0ffaac6");
    ("Target 6", "CT-BPAS", "8a350c5d787b857d");
    ("Target 6", "CT-COND", "7f4fe08c10d6d4df");
    ("Target 6", "CT-COND-BPAS", "7e8bbc42520babdc");
    ("Target 7", "CT-SEQ", "98b8aed7f874a457");
    ("Target 7", "CT-BPAS", "6d7873b6c7947404");
    ("Target 7", "CT-COND", "688a628ad04dc832");
    ("Target 7", "CT-COND-BPAS", "7b86740bd5d8d681");
    ("Target 8", "CT-SEQ", "0472269939f0c3f6");
    ("Target 8", "CT-BPAS", "58b39c0be18be8fb");
    ("Target 8", "CT-COND", "edd2ec368eccf305");
    ("Target 8", "CT-COND-BPAS", "44c31fa61a77286c");
  ]

let test_fingerprints_pinned () =
  check int "every target x ladder contract pinned"
    (List.length Target.all * List.length Contract.standard_ladder)
    (List.length pinned_fingerprints);
  List.iter
    (fun (target, contract, expected) ->
      let cfg =
        Target.fuzzer_config ~seed:1L
          (Result.get_ok (Contract.of_name contract))
          (Option.get (Target.find target))
      in
      check string
        (Printf.sprintf "%s x %s" target contract)
        expected (Campaign.fingerprint cfg))
    pinned_fingerprints;
  check string "Target 1 x CT-SEQ, seed 7" "95dec6e60908902e"
    (Campaign.fingerprint
       (Target.fuzzer_config ~seed:7L Contract.ct_seq Target.target1));
  let cfg =
    Target.fuzzer_config ~seed:3L ~n_inputs:40 Contract.ct_seq Target.target5
  in
  check string "Target 5 x CT-SEQ, seed 3, 40 inputs, 1234-step watchdog"
    "878798190d4417ac"
    (Campaign.fingerprint
       { cfg with Fuzzer.watchdog = { Watchdog.max_model_steps = 1234 } })

(* --- coverage serialization ------------------------------------------ *)

let test_coverage_json_roundtrip () =
  let cov = Coverage.create () in
  Coverage.register cov
    ~patterns:[ Coverage.Store_after_store; Coverage.Load_after_load ]
    ~effective:true;
  Coverage.register cov ~patterns:[ Coverage.Reg_dependency ] ~effective:true;
  Coverage.register cov ~patterns:[ Coverage.Cond_dependency ] ~effective:false;
  let j = Coverage.to_json cov in
  match Coverage.of_json j with
  | Error e -> Alcotest.failf "of_json: %s" e
  | Ok cov' ->
      check string "json round-trip" (Json.to_string j)
        (Json.to_string (Coverage.to_json cov'));
      check int "combinations preserved"
        (Coverage.total_combinations cov)
        (Coverage.total_combinations cov');
      check bool "ineffective pattern not covered" false
        (Coverage.covered cov' Coverage.Cond_dependency)

(* --- futures pool ----------------------------------------------------- *)

let test_pool_task_exception_propagates () =
  (* A task's exception re-raises at [await] on the submitting domain;
     it neither kills a worker nor strands the other futures. *)
  let p = Pool.create 3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let futs =
    List.init 16 (fun i ->
        Pool.spawn p (fun () -> if i = 5 then failwith "task boom" else i * i))
  in
  List.iteri
    (fun i f ->
      match Pool.await p f with
      | v -> check int (Printf.sprintf "future %d" i) (i * i) v
      | exception Failure msg ->
          check int "only the failing task raises" 5 i;
          check string "original exception" "task boom" msg)
    futs;
  check int "pool still runs tasks" 42 (Pool.await p (Pool.spawn p (fun () -> 42)))

(* --- watchdog --------------------------------------------------------- *)

let test_watchdog_fuel () =
  let w = { Watchdog.max_model_steps = 5 } in
  let fuel = Watchdog.start w in
  for _ = 1 to 5 do
    Watchdog.tick fuel
  done;
  match Watchdog.tick fuel with
  | () -> Alcotest.fail "expected Pathological on exhausted fuel"
  | exception Watchdog.Pathological _ -> ()

let test_watchdog_skips_pathological () =
  (* A starvation-level step budget trips on every test case; the
     campaign must absorb the skips and still complete its budget. *)
  let cfg =
    {
      (Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target5) with
      Fuzzer.watchdog = { Watchdog.max_model_steps = 10 };
    }
  in
  let outcome, stats = Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 15) in
  check string "no violation possible" "no-violation"
    (Support.outcome_fingerprint outcome);
  check int "budget consumed" 15 stats.Fuzzer.test_cases;
  (* a rare tiny test case can finish under even this budget *)
  check bool "most test cases skipped" true
    (stats.Fuzzer.skipped_pathological >= 10)

let test_default_watchdog_transparent () =
  (* The default ceiling must not perturb results: same campaign with the
     ceiling at default vs effectively infinite. *)
  let base = Target.fuzzer_config ~seed:2L Contract.ct_seq Target.target5 in
  let huge =
    {
      base with
      Fuzzer.watchdog =
        { Watchdog.max_model_steps = max_int };
    }
  in
  let o1, s1 = Fuzzer.fuzz base ~budget:(Fuzzer.Test_cases 40) in
  let o2, s2 = Fuzzer.fuzz huge ~budget:(Fuzzer.Test_cases 40) in
  check string "outcome identical" (Support.outcome_fingerprint o1)
    (Support.outcome_fingerprint o2);
  check string "stats identical" (Support.stats_fingerprint s1)
    (Support.stats_fingerprint s2);
  check int "nothing skipped" 0 s1.Fuzzer.skipped_pathological

(* --- fault injection: model stage ------------------------------------ *)

let test_model_fault_absorbed () =
  (* Three injected model blowups: each aborts one test case, counted as
     faulted+absorbed; the campaign completes its budget regardless. *)
  Metrics.reset ();
  with_faults ~seed:1L
    [ ("model.ctrace", { Faultpoint.rate = 1.0; after = 5; max_fires = 3 }) ]
  @@ fun () ->
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target1 in
  let _, stats = Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 10) in
  check int "budget consumed" 10 stats.Fuzzer.test_cases;
  check int "three test cases absorbed the faults" 3
    stats.Fuzzer.faulted_test_cases;
  let snap = Metrics.snapshot () in
  check int "fault.absorbed counter" 3
    (Option.value
       (List.assoc_opt "fault.absorbed" snap.Metrics.counters)
       ~default:0)

let test_fault_schedule_deterministic () =
  let pattern () =
    with_faults ~seed:77L
      [ ("model.ctrace", { Faultpoint.rate = 0.3; after = 2; max_fires = 0 }) ]
    @@ fun () ->
    let p = Faultpoint.point "model.ctrace" in
    List.init 200 (fun _ -> Faultpoint.should_fire p)
  in
  check (Alcotest.list bool) "same seed, same schedule" (pattern ()) (pattern ())

let test_faultpoint_disabled_is_inert () =
  Faultpoint.disable ();
  let p = Faultpoint.point "model.ctrace" in
  check bool "disabled" false (Faultpoint.enabled ());
  (* [fired] is a lifetime count (earlier tests armed this point), so the
     assertion is on the delta. *)
  let before = Faultpoint.fired p in
  for _ = 1 to 100 do
    Faultpoint.fire p
  done;
  check int "no fires when disarmed" before (Faultpoint.fired p)

(* --- fault injection: artifact writers -------------------------------- *)

let test_atomic_write_retry () =
  Metrics.reset ();
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "revizor_aw_%d.txt" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* Two injected failures, then success on the third attempt. *)
  with_faults ~seed:1L
    [ ("writer.io", { Faultpoint.rate = 1.0; after = 0; max_fires = 2 }) ]
    (fun () -> Atomic_file.write path "payload one");
  check string "published after retries" "payload one"
    (In_channel.with_open_bin path In_channel.input_all);
  let snap = Metrics.snapshot () in
  check int "retries counted" 2
    (Option.value
       (List.assoc_opt "obs.atomic_write_retries" snap.Metrics.counters)
       ~default:0);
  (* Permanent failure: the exception surfaces after bounded retries and
     the previous artifact survives untouched. *)
  (with_faults ~seed:1L [ ("writer.io", always) ] @@ fun () ->
   match Atomic_file.write path "payload two" with
   | () -> Alcotest.fail "expected Injected after exhausted retries"
   | exception Faultpoint.Injected _ -> ());
  check string "previous artifact intact" "payload one"
    (In_channel.with_open_bin path In_channel.input_all)

(* --- parallel execute/materialize (PR 7) ------------------------------ *)

(* Full-campaign fingerprints must be invariant under the executor pool
   size: the loop commits in generation order, workers replicate all
   scratch state, and noise and fault draws are keyed on the test-case
   index. *)
let run_campaign ?(mutate = Fun.id) ~seed ~domains ~total target =
  let cfg = Target.fuzzer_config ~seed Contract.ct_seq target in
  let cfg = mutate { cfg with Fuzzer.executor_domains = domains } in
  let o, s = Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases total) in
  (Support.outcome_fingerprint o, Support.stats_fingerprint s)

let assert_domains_invariant ?mutate ~label target =
  List.iter
    (fun seed ->
      let base = run_campaign ?mutate ~seed ~domains:1 ~total:40 target in
      List.iter
        (fun domains ->
          let got = run_campaign ?mutate ~seed ~domains ~total:40 target in
          let l = Printf.sprintf "%s seed=%Ld domains=%d" label seed domains in
          check string (l ^ ": outcome") (fst base) (fst got);
          check string (l ^ ": stats") (snd base) (snd got))
        [ 2; 4 ])
    [ 1L; 2L; 3L; 4L; 5L ]

let test_exec_domains_bit_identical () =
  assert_domains_invariant ~label:"plain" Target.target5

let test_exec_domains_noise () =
  (* Keyed noise: the flip schedule is a pure function of (noise seed,
     test-case coordinates), so a noisy campaign shards identically. *)
  let mutate cfg =
    {
      cfg with
      Fuzzer.executor =
        {
          cfg.Fuzzer.executor with
          Executor.noise =
            Some { Executor.flip_probability = 0.3; seed = 41L };
        };
    }
  in
  assert_domains_invariant ~mutate ~label:"noise" Target.target5

let test_exec_domains_faults () =
  (* Per-test-case fault contexts: with an unlimited-fires schedule the
     firing pattern inside test case [k] depends only on (fault seed, k),
     not on which domain runs it or in what order. (A global [max_fires]
     cap would reintroduce cross-domain ordering, so none is set.) *)
  with_faults ~seed:11L
    [ ("model.ctrace", { Faultpoint.rate = 0.1; after = 0; max_fires = 0 }) ]
  @@ fun () -> assert_domains_invariant ~label:"faults" Target.target5

let test_exec_domains_writer_faults () =
  (* Commit-time fault draws are keyed on the committed test case too:
     checkpoint files written under an armed [writer.io] schedule retry
     exactly as often at every domain count. *)
  let run domains =
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "revizor_wio_%d_%d.json" (Unix.getpid ()) domains)
    in
    Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    @@ fun () ->
    Metrics.reset ();
    let cfg =
      {
        (Target.fuzzer_config ~seed:2L Contract.ct_seq Target.target1) with
        Fuzzer.executor_domains = domains;
      }
    in
    let o, s =
      with_faults ~seed:9L
        [ ("writer.io", { Faultpoint.rate = 0.3; after = 0; max_fires = 0 }) ]
      @@ fun () ->
      Fuzzer.fuzz ~checkpoint_every:5
        ~on_checkpoint:(fun snap -> Campaign.save ~path cfg snap)
        cfg ~budget:(Fuzzer.Test_cases 60)
    in
    let retries =
      Option.value
        (List.assoc_opt "obs.atomic_write_retries"
           (Metrics.snapshot ()).Metrics.counters)
        ~default:0
    in
    (Support.outcome_fingerprint o, Support.stats_fingerprint s, retries)
  in
  let o1, s1, r1 = run 1 in
  check bool "some checkpoint writes retried" true (r1 > 0);
  List.iter
    (fun domains ->
      let o, s, r = run domains in
      let l = Printf.sprintf "domains=%d" domains in
      check string (l ^ ": outcome") o1 o;
      check string (l ^ ": stats") s1 s;
      check int (l ^ ": write retries") r1 r)
    [ 2; 4 ]

let test_parallel_resume_bit_identical () =
  (* Checkpoints are pool-size-invariant in both directions: a snapshot
     taken by the pipelined loop round-trips through the codec under the
     sequential config (same fingerprint) and resumes — in parallel mode
     — to the exact outcome of the uninterrupted sequential run. *)
  List.iter
    (fun seed ->
      let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target5 in
      let par = { cfg with Fuzzer.executor_domains = 2 } in
      let base_o, base_s = Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 80) in
      let last = ref None in
      let seg1_o, _ =
        Fuzzer.fuzz
          ~on_checkpoint:(fun s -> last := Some s)
          ~checkpoint_every:7 par
          ~budget:(Fuzzer.Test_cases 30)
      in
      let label = Printf.sprintf "par-resume seed=%Ld" seed in
      match seg1_o with
      | Fuzzer.Violation _ ->
          check string (label ^ ": early violation matches")
            (Support.outcome_fingerprint base_o) (Support.outcome_fingerprint seg1_o)
      | Fuzzer.No_violation -> (
          match !last with
          | None -> Alcotest.failf "%s: no checkpoint emitted" label
          | Some snap -> (
              match Campaign.of_json cfg (Campaign.to_json par snap) with
              | Error e -> Alcotest.failf "%s: codec round-trip: %s" label e
              | Ok snap ->
                  let res_o, res_s =
                    Fuzzer.fuzz ~resume:snap par
                      ~budget:(Fuzzer.Test_cases 80)
                  in
                  check string (label ^ ": outcome identical")
                    (Support.outcome_fingerprint base_o)
                    (Support.outcome_fingerprint res_o);
                  check string (label ^ ": stats identical")
                    (Support.stats_fingerprint base_s) (Support.stats_fingerprint res_s))))
    [ 1L; 2L; 3L ]

let test_parallel_fingerprint_invariant () =
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target5 in
  let fp = Campaign.fingerprint cfg in
  check string "executor_domains does not change fingerprint" fp
    (Campaign.fingerprint { cfg with Fuzzer.executor_domains = 4 });
  (* Pinned digests: checkpoints and fleet ledgers written by earlier
     versions carry these fingerprints and must keep resuming. *)
  check string "target5 x CT-SEQ fingerprint pinned" "0c5b5e4e877d8d90" fp;
  check string "target1 x CT-SEQ fingerprint pinned" "1bc96e37133ff8d0"
    (Campaign.fingerprint
       (Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target1));
  (* The noise seed keys the flip schedule, so it IS part of the result
     stream and must be digested. *)
  let with_noise seed =
    Campaign.fingerprint
      {
        cfg with
        Fuzzer.executor =
          {
            cfg.Fuzzer.executor with
            Executor.noise =
              Some { Executor.flip_probability = 0.3; seed };
          };
      }
  in
  check bool "noise seed changes fingerprint" true
    (with_noise 41L <> with_noise 42L)

let test_memo_off_bit_identical () =
  (* The measurement memo must be a pure optimization: campaigns with it
     disabled produce identical outcomes and statistics, on a branch-free
     target, branch-heavy (speculative) ones, and one with CALL/RET. *)
  let run cfg memo =
    Executor.set_memo memo;
    Fun.protect ~finally:(fun () -> Executor.set_memo true) @@ fun () ->
    let o, s = Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 40) in
    (Support.outcome_fingerprint o, Support.stats_fingerprint s)
  in
  let cfg contract target = Target.fuzzer_config ~seed:4L contract target in
  let ind =
    let c = cfg Contract.ct_seq Target.target5 in
    let g = c.Fuzzer.gen_cfg in
    {
      c with
      Fuzzer.gen_cfg =
        {
          g with
          Generator.subsets = g.Generator.subsets @ [ Revizor_isa.Catalog.IND ];
          n_functions = 2;
        };
    }
  in
  List.iter
    (fun (name, cfg) ->
      let on = run cfg true and off = run cfg false in
      check string (name ^ ": outcome") (fst off) (fst on);
      check string (name ^ ": stats") (snd off) (snd on))
    [
      ("target1", cfg Contract.ct_seq Target.target1);
      ("target5", cfg Contract.ct_seq Target.target5);
      ("target5 x CT-COND", cfg Contract.ct_cond Target.target5);
      ("target5 + IND", ind);
    ]

(* --- telemetry tail tolerance ----------------------------------------- *)

let test_truncated_tail_tolerated () =
  let buf = Buffer.create 256 in
  Telemetry.enable_buffer buf;
  Telemetry.event "unit.a" [ ("k", Json.Int 1) ];
  Telemetry.event "unit.b" [];
  Telemetry.disable ();
  let good = Buffer.contents buf in
  let truncated = good ^ "{\"ts\":123,\"kind\":\"ev" in
  let scan s = Telemetry.scan_lines (String.split_on_char '\n' s) in
  let sc = scan truncated in
  check bool "no hard error" true (sc.Telemetry.sc_error = None);
  check bool "truncation reported" true sc.Telemetry.sc_truncated_tail;
  check int "intact lines still counted" 2 sc.Telemetry.sc_events;
  (* The same garbage in the middle is NOT tolerated. *)
  let corrupt = "{\"ts\":123,\"kind\":\"ev\n" ^ good in
  let sc = scan corrupt in
  check bool "mid-file corruption is an error" true
    (sc.Telemetry.sc_error <> None);
  (* And a fully well-formed file reports neither. *)
  let sc = scan good in
  check bool "clean file: no error" true (sc.Telemetry.sc_error = None);
  check bool "clean file: no truncation" false sc.Telemetry.sc_truncated_tail

let () =
  Alcotest.run "resilience"
    [
      ( "checkpoint",
        [
          tc "prng state round-trip" `Quick test_prng_state_roundtrip;
          tc "resume bit-identical (seeds x pool sizes)" `Slow
            test_resume_bit_identical;
          tc "checkpoint file round-trip + rejection" `Quick
            test_checkpoint_file_roundtrip;
          tc "fingerprint sensitivity" `Quick test_fingerprint_sensitivity;
          tc "fingerprints pinned" `Quick test_fingerprints_pinned;
          tc "coverage json round-trip" `Quick test_coverage_json_roundtrip;
        ] );
      ( "pool",
        [
          tc "task exceptions propagate" `Quick
            test_pool_task_exception_propagates;
        ] );
      ( "watchdog",
        [
          tc "fuel exhaustion raises" `Quick test_watchdog_fuel;
          tc "pathological test cases skipped" `Quick
            test_watchdog_skips_pathological;
          tc "default ceiling transparent" `Slow
            test_default_watchdog_transparent;
        ] );
      ( "faults",
        [
          tc "model fault absorbed" `Quick test_model_fault_absorbed;
          tc "schedule deterministic" `Quick test_fault_schedule_deterministic;
          tc "disabled points inert" `Quick test_faultpoint_disabled_is_inert;
          tc "atomic writes retry injected faults" `Quick
            test_atomic_write_retry;
        ] );
      ( "parallel",
        [
          tc "executor domains bit-identical" `Slow
            test_exec_domains_bit_identical;
          tc "executor domains with noise" `Slow test_exec_domains_noise;
          tc "executor domains with fault injection" `Slow
            test_exec_domains_faults;
          tc "executor domains with checkpoint write faults" `Quick
            test_exec_domains_writer_faults;
          tc "parallel checkpoint/resume bit-identical" `Slow
            test_parallel_resume_bit_identical;
          tc "pool knobs outside fingerprint" `Quick
            test_parallel_fingerprint_invariant;
          tc "memo off is bit-identical" `Slow test_memo_off_bit_identical;
        ] );
      ( "telemetry",
        [ tc "truncated tail tolerated" `Quick test_truncated_tail_tolerated ] );
    ]
