(* Cold start: this suite is its own executable, so no earlier test has
   forced any process-wide table on the main domain. Its first action is
   a pooled campaign, whose worker domains are the first to reach
   anything the check path initialises on first use (a lazy value first
   forced by two domains at once raises [CamlinternalLazy.Undefined]);
   its outcome and statistics must equal the sequential run's bit for
   bit. *)

open Revizor

let check = Alcotest.check
let string = Alcotest.string

let run ~executor_domains =
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_cond Target.target5 in
  let outcome, stats =
    Fuzzer.fuzz
      { cfg with Fuzzer.executor_domains }
      ~budget:(Fuzzer.Test_cases 60)
  in
  let outcome =
    match outcome with
    | Fuzzer.No_violation -> "none"
    | Fuzzer.Violation v -> Violation.summary v
  in
  (* elapsed_s is wall time, the one field excluded from bit-identity *)
  let stats =
    Revizor_obs.Json.to_string
      (Fuzzer.stats_to_json { stats with Fuzzer.elapsed_s = 0. })
  in
  (outcome, stats)

let test_pooled_first () =
  let pooled = run ~executor_domains:2 in
  let sequential = run ~executor_domains:1 in
  check string "outcome" (fst sequential) (fst pooled);
  check string "stats" (snd sequential) (snd pooled)

let () =
  Alcotest.run "cold_start"
    [
      ( "cold_start",
        [
          Alcotest.test_case "pooled campaign first equals sequential" `Quick
            test_pooled_first;
        ] );
    ]
