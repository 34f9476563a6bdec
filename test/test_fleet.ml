(* Fleet orchestration (PR 10): deterministic backoff, ledger codec and
   state machine, atlas-merge algebra, idempotent corpus commits, and
   the headline recovery invariant — a fleet run under any seeded fault
   schedule (worker crashes, hangs, lost spawns/heartbeats, failing
   control-plane writes, SIGKILLed orchestrator) merges to the same
   bytes as an uninterrupted in-process sequential run of the same
   shards. *)

open Revizor
module Json = Revizor_obs.Json
module Metrics = Revizor_obs.Metrics
module Monitor = Revizor_obs.Monitor
module Backoff = Revizor_obs.Backoff
module Faultpoint = Revizor_obs.Faultpoint
module Ledger = Revizor_fleet.Ledger
module Worker = Revizor_fleet.Worker
module Merge = Revizor_fleet.Merge
module Orchestrator = Revizor_fleet.Orchestrator

let check = Alcotest.check
let tc = Alcotest.test_case
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let counter name =
  Option.value ~default:0
    (List.assoc_opt name (Metrics.snapshot ()).Metrics.counters)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Small, fast campaign spec. Seeds 5..8 include seeds whose campaigns
   hit a Spectre violation inside the budget (6 and 8) and seeds that
   stay compliant — so the merge carries both kinds of shard result. *)
let mk_spec ?(seeds = [ 5L; 6L; 7L; 8L ]) ?(budget = 60) ?(inputs = 50)
    ?(workers = 2) ?(lease = 5.) ?(max_attempts = 8) ?(ckpt = 5) () =
  {
    (Ledger.default_spec ~target:"Target 5" ~contract:"CT-SEQ" ~seeds) with
    Ledger.sp_budget = budget;
    sp_n_inputs = inputs;
    sp_workers = workers;
    sp_lease_s = lease;
    sp_max_attempts = max_attempts;
    sp_checkpoint_every = ckpt;
    sp_backoff = { Backoff.base_ms = 10.; cap_ms = 150. };
  }

(* --- backoff ----------------------------------------------------------- *)

let test_backoff () =
  let policy = { Backoff.base_ms = 50.; cap_ms = 2000. } in
  let key = Revizor_obs.Hash.fnv1a "some-shard" in
  (* Pure function of (key, attempt). *)
  for attempt = 0 to 12 do
    let a = Backoff.delay_ms policy ~key ~attempt in
    let b = Backoff.delay_ms policy ~key ~attempt in
    check (Alcotest.float 0.) (Printf.sprintf "deterministic @%d" attempt) a b;
    check bool "non-negative" true (a >= 0.);
    (* Full jitter: bounded by the capped exponential ceiling. *)
    let ceiling = Float.min 2000. (50. *. Float.of_int (1 lsl attempt)) in
    check bool "within ceiling" true (a <= ceiling)
  done;
  (* Past the cap the ceiling stops growing but stays jittered. *)
  let deep = Backoff.delay_ms policy ~key ~attempt:50 in
  check bool "capped far out" true (deep >= 0. && deep <= 2000.);
  let huge = Backoff.delay_ms policy ~key ~attempt:200 in
  check bool "no overflow at huge attempts" true (huge >= 0. && huge <= 2000.);
  (* Different keys see different jitter (with overwhelming probability
     across 13 attempts). *)
  let other = Revizor_obs.Hash.fnv1a "other-shard" in
  check bool "keys decorrelate" true
    (List.exists
       (fun attempt ->
         Backoff.delay_ms policy ~key ~attempt
         <> Backoff.delay_ms policy ~key:other ~attempt)
       [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ])

let test_atomic_file_backoff () =
  Support.with_tmpdir "atomic" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "out.json" in
  Faultpoint.enable ~seed:9L
    [ ("writer.io", { Faultpoint.rate = 1.; max_fires = 2 }) ];
  Fun.protect ~finally:Faultpoint.disable @@ fun () ->
  let fp = Faultpoint.point "writer.io" in
  Revizor_obs.Atomic_file.write path "payload";
  check string "write survived two injected failures" "payload" (read_file path);
  check int "exactly the injected failures fired" 2 (Faultpoint.fired fp)

(* A control-plane write that keeps failing gives up after the atomic
   write's four attempts, whichever point fails it: [writer.io], or the
   file's own fleet point, which fires first on each attempt. *)
let test_control_plane_write_attempts () =
  Support.with_tmpdir "attempts" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let spec = mk_spec () in
  let ledger = Ledger.create ~dir spec and merged = Merge.create ~spec in
  List.iter
    (fun (point, save) ->
      Faultpoint.enable ~seed:1L
        [ (point, { Faultpoint.rate = 1.; max_fires = 0 }) ];
      Fun.protect ~finally:Faultpoint.disable @@ fun () ->
      (match save () with
      | () -> Alcotest.failf "%s: the write succeeded" point
      | exception Faultpoint.Injected _ -> ());
      check int
        (Printf.sprintf "%s: four attempts" point)
        4
        (Faultpoint.hits (Faultpoint.point point)))
    [
      ("writer.io", fun () -> Ledger.save ledger);
      ("fleet.ledger_write", fun () -> Ledger.save ledger);
      ("fleet.merge", fun () -> Merge.save ~dir ~spec merged);
    ];
  check bool "no file published" false (Sys.file_exists (Ledger.ledger_path dir))

(* --- ledger ------------------------------------------------------------ *)

let test_ledger_roundtrip () =
  Support.with_tmpdir "ledger" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let spec = mk_spec () in
  let t = Ledger.create ~dir spec in
  let now = 1000. in
  Ledger.lease t.Ledger.shards.(0) ~pid:4242 ~now ~lease_s:5.;
  Ledger.mark_done t.Ledger.shards.(1);
  Ledger.mark_failed t t.Ledger.shards.(2) ~now;
  Ledger.save t;
  match Ledger.load ~dir with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok t' ->
      check string "codec round-trip"
        (Json.to_string (Ledger.to_json t))
        (Json.to_string (Ledger.to_json t'));
      (match t'.Ledger.shards.(0).Ledger.sh_state with
      | Ledger.Leased { pid; expires; _ } ->
          check int "lease pid survives" 4242 pid;
          check bool "absolute expiry survives" true (expires = now +. 5.)
      | _ -> Alcotest.fail "shard 0 should be leased");
      check bool "failed shard gated behind backoff" true
        (t'.Ledger.shards.(2).Ledger.sh_not_before > now);
      let p, l, d, q = Ledger.counts t' in
      check (Alcotest.list int) "counts" [ 2; 1; 1; 0 ] [ p; l; d; q ];
      (* Orchestration knobs the orchestrator cannot run with are refused
         by the decoder, with an error that names the field (zero workers
         used to leave `fleet resume` waiting forever). *)
      let with_spec_field key v =
        let set k x kvs = List.map (fun (k', y) -> (k', if k' = k then x else y)) kvs in
        match Ledger.to_json t with
        | Json.Obj kvs -> (
            match List.assoc "spec" kvs with
            | Json.Obj sp -> Json.Obj (set "spec" (Json.Obj (set key v sp)) kvs)
            | _ -> Alcotest.fail "spec is not an object")
        | _ -> Alcotest.fail "ledger is not an object"
      in
      List.iter
        (fun (key, v) ->
          match Ledger.of_json ~dir (with_spec_field key v) with
          | Ok _ -> Alcotest.failf "%s = %s accepted" key (Json.to_string v)
          | Error e -> check bool (Printf.sprintf "%s refused: %s" key e) true (contains e key))
        [
          ("workers", Json.Int 0);
          ("workers", Json.Int (-2));
          ("max_attempts", Json.Int (-1));
          ("lease_s", Json.Float (-1.));
          ("lease_s", Json.Float Float.infinity);
          ("backoff_base_ms", Json.Float (-10.));
          ("backoff_base_ms", Json.Float Float.nan);
          ("backoff_cap_ms", Json.Float (-1.));
          ("backoff_cap_ms", Json.Float Float.neg_infinity);
        ];
      match Ledger.of_json ~dir (with_spec_field "max_attempts" (Json.Int 0)) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "max_attempts = 0 refused: %s" e

let test_ledger_quarantine () =
  Support.with_tmpdir "quarantine" @@ fun dir ->
  let spec = mk_spec ~max_attempts:3 () in
  let t = Ledger.create ~dir spec in
  let sh = t.Ledger.shards.(0) in
  Ledger.mark_failed t sh ~now:0.;
  check bool "still pending after 1 failure" true (sh.Ledger.sh_state = Ledger.Pending);
  Ledger.mark_failed t sh ~now:0.;
  Ledger.mark_failed t sh ~now:0.;
  check bool "quarantined at max attempts" true
    (sh.Ledger.sh_state = Ledger.Quarantined);
  (* Escalation gates are deterministic and monotone in ceiling. *)
  let d1 = Ledger.backoff_delay_s spec ~shard_id:0 ~attempt:1 in
  check bool "gate deterministic" true
    (d1 = Ledger.backoff_delay_s spec ~shard_id:0 ~attempt:1);
  (* Revocation (orchestrator death) does not escalate. *)
  let sh1 = t.Ledger.shards.(1) in
  Ledger.lease sh1 ~pid:1 ~now:0. ~lease_s:1.;
  Ledger.mark_revoked sh1;
  check bool "revoke keeps attempts" true
    (sh1.Ledger.sh_state = Ledger.Pending && sh1.Ledger.sh_attempts = 0);
  check bool "not finished" false (Ledger.finished t)

(* The orchestrator SIGKILLs a leased shard's pid on resume: a ledger
   whose lease names pid -1 (every process the user may signal), 0 (the
   orchestrator's own process group) or 1 (init) is refused by the
   decoder, with an error that names the field. Decoded only: nothing
   here resumes such a ledger. *)
let test_ledger_refuses_low_pids () =
  let leased pid =
    let t = Ledger.create ~dir:"unused" (mk_spec ()) in
    Ledger.lease t.Ledger.shards.(0) ~pid ~now:0. ~lease_s:5.;
    Ledger.of_json ~dir:"unused" (Ledger.to_json t)
  in
  List.iter
    (fun pid ->
      match leased pid with
      | Ok _ -> Alcotest.failf "leased pid %d accepted" pid
      | Error e ->
          check bool
            (Printf.sprintf "pid %d refused naming the field: %s" pid e)
            true (contains e "pid"))
    [ -1; 0; 1; min_int ];
  match leased 2 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pid 2 refused: %s" e

let test_fingerprint_guard () =
  Support.with_tmpdir "fpguard" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let spec = mk_spec ~seeds:[ 1L ] ~budget:5 ~inputs:5 () in
  let t = Ledger.create ~dir spec in
  Ledger.save t;
  let other = { spec with Ledger.sp_budget = spec.Ledger.sp_budget + 1 } in
  (match Orchestrator.run ~dir other with
  | Error e ->
      check bool "refusal names the fingerprints" true
        (String.length e > 0
        && String.length (Ledger.fingerprint other) = 16)
  | Ok _ -> Alcotest.fail "mismatched spec must be refused");
  (* Orchestration knobs are not part of the identity. *)
  check string "workers/lease do not change the fingerprint"
    (Ledger.fingerprint spec)
    (Ledger.fingerprint { spec with Ledger.sp_workers = 9; sp_lease_s = 99. })

(* --- atlas merge algebra ----------------------------------------------- *)

let atlas_of tcs_features =
  let u = Ucoverage.create () in
  List.iter (fun (tc, fs) -> Ucoverage.register u ~tc fs) tcs_features;
  u

let merged_bytes u = Json.to_string (Ucoverage.to_json u)

let test_ucoverage_merge () =
  let f1 = [ Ucoverage.Depth 1 ] in
  let f2 = [ Ucoverage.Depth 2 ] in
  let f3 = [ Ucoverage.Depth 1; Ucoverage.Depth 3 ] in
  let a = atlas_of [ (3, f1); (7, f2) ] in
  let b = atlas_of [ (1, f1); (9, f3) ] in
  let c = atlas_of [ (2, f2) ] in
  check string "commutative"
    (merged_bytes (Ucoverage.merge a b))
    (merged_bytes (Ucoverage.merge b a));
  check string "associative"
    (merged_bytes (Ucoverage.merge (Ucoverage.merge a b) c))
    (merged_bytes (Ucoverage.merge a (Ucoverage.merge b c)));
  check string "idempotent"
    (merged_bytes (Ucoverage.merge a b))
    (merged_bytes (Ucoverage.merge (Ucoverage.merge a b) b));
  (* Union takes the earliest first hit. *)
  let m = Ucoverage.merge a b in
  check
    (Alcotest.list (Alcotest.pair string int))
    "min first-hit union"
    [ ("depth:1", 1); ("depth:2", 7); ("depth:3", 9) ]
    (List.map
       (fun (f, tc) -> (Ucoverage.feature_to_string f, tc))
       (Ucoverage.first_hits m))

(* --- merge commits ----------------------------------------------------- *)

let run_one_shard ~dir spec id =
  let sh = (Ledger.create ~dir spec).Ledger.shards.(id) in
  match
    Worker.run_shard ~dir ~spec ~shard_id:id ~seed:sh.Ledger.sh_seed ~attempt:0
      ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "run_shard: %s" e

let test_merge_idempotent () =
  Support.with_tmpdir "merge" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let spec = mk_spec ~seeds:[ 6L ] ~budget:60 () in
  let r = run_one_shard ~dir spec 0 in
  check bool "seed 6 finds the violation" true (r.Worker.r_violation <> None);
  let m = Merge.create ~spec in
  check bool "first commit lands" true (Merge.commit m r);
  let once = Merge.render m in
  check bool "re-commit is a no-op" false (Merge.commit m r);
  check string "re-commit changes nothing" once (Merge.render m);
  (* Round-trips through disk to the same bytes. *)
  Merge.save ~dir ~spec m;
  (match Merge.load ~dir ~spec with
  | Ok m' -> check string "disk round-trip" once (Merge.render m')
  | Error e -> Alcotest.failf "merge load: %s" e);
  (* Shard results re-serialize byte-identically too. *)
  match Worker.of_json (Worker.to_json r) with
  | Ok r' ->
      check string "shard result codec round-trip"
        (Json.to_string (Worker.to_json r))
        (Json.to_string (Worker.to_json r'))
  | Error e -> Alcotest.failf "result codec: %s" e

(* --- fleet vs sequential reference ------------------------------------- *)

let reference_bytes ~dir spec =
  (match Orchestrator.reference ~dir spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reference: %s" e);
  read_file (Ledger.merged_path dir)

let test_fleet_matches_reference () =
  Support.with_tmpdir "nofault" @@ fun root ->
  Unix.mkdir root 0o755;
  let spec = mk_spec () in
  let ref_bytes = reference_bytes ~dir:(Filename.concat root "ref") spec in
  let dir = Filename.concat root "fleet" in
  (match Orchestrator.run ~dir spec with
  | Ok Orchestrator.Completed -> ()
  | Ok Orchestrator.Interrupted -> Alcotest.fail "unexpected interruption"
  | Error e -> Alcotest.failf "fleet run: %s" e);
  check string "2-worker fleet == sequential reference (bytes)" ref_bytes
    (read_file (Ledger.merged_path dir));
  (* The merged corpus really carries the violations. *)
  match Merge.load ~dir ~spec with
  | Error e -> Alcotest.failf "merged: %s" e
  | Ok m ->
      check bool "violations present" true (Merge.violations m <> []);
      check (Alcotest.list int) "every shard committed exactly once"
        [ 0; 1; 2; 3 ] (Merge.shards m)

(* The deterministic chaos matrix: seeded schedules of worker crashes,
   hangs, lost spawns and heartbeats, and failing ledger/merge writes,
   at varied rates. Every schedule must merge to the reference bytes —
   no lost shard, no duplicated violation, identical atlas. *)
let chaos_schedules =
  [
    ( 7L,
      [
        ("fleet.worker_crash", { Faultpoint.rate = 0.03; max_fires = 0 });
        ("fleet.worker_hang", { Faultpoint.rate = 0.004; max_fires = 1 });
        ("fleet.spawn", { Faultpoint.rate = 0.25; max_fires = 1 });
        ("fleet.ledger_write", { Faultpoint.rate = 0.2; max_fires = 2 });
      ] );
    ( 1337L,
      [
        (* Kept cool enough that, with checkpoints every 5 test cases,
           an adoption advances at least one segment with ~0.9
           probability — monotone progress, quarantine practically
           unreachable at the attempt cap. *)
        ("fleet.worker_crash", { Faultpoint.rate = 0.02; max_fires = 0 });
        ("fleet.heartbeat", { Faultpoint.rate = 0.5; max_fires = 0 });
        ("fleet.merge", { Faultpoint.rate = 1.0; max_fires = 1 });
      ] );
  ]

let test_chaos_matrix () =
  Support.with_tmpdir "chaos" @@ fun root ->
  Unix.mkdir root 0o755;
  let spec = mk_spec ~lease:0.6 ~max_attempts:12 () in
  let ref_bytes = reference_bytes ~dir:(Filename.concat root "ref") spec in
  List.iteri
    (fun i (fault_seed, points) ->
      let dir = Filename.concat root (Printf.sprintf "chaos%d" i) in
      Faultpoint.enable ~seed:fault_seed points;
      let outcome =
        Fun.protect ~finally:Faultpoint.disable (fun () ->
            Orchestrator.run ~dir spec)
      in
      (match outcome with
      | Ok Orchestrator.Completed -> ()
      | Ok Orchestrator.Interrupted -> Alcotest.fail "unexpected interruption"
      | Error e -> Alcotest.failf "chaos fleet %d: %s" i e);
      check string
        (Printf.sprintf "chaos schedule %d == reference (bytes)" i)
        ref_bytes
        (read_file (Ledger.merged_path dir));
      match Ledger.load ~dir with
      | Error e -> Alcotest.failf "chaos ledger %d: %s" i e
      | Ok l ->
          let _, _, d, q = Ledger.counts l in
          check int (Printf.sprintf "chaos %d: all shards done" i) 4 d;
          check int (Printf.sprintf "chaos %d: none quarantined" i) 0 q)
    chaos_schedules

(* A crash rate of 1 fires at the first test-case boundary of every
   adoption: the shard can never progress and must escalate through the
   backoff gates into quarantine — and the fleet must still terminate
   and report it, with the sound shards merged. *)
let test_quarantine_escalation () =
  Support.with_tmpdir "escalate" @@ fun root ->
  Unix.mkdir root 0o755;
  let spec = mk_spec ~seeds:[ 5L; 6L ] ~workers:2 ~max_attempts:3 () in
  Faultpoint.enable ~seed:3L
    [ ("fleet.worker_crash", { Faultpoint.rate = 1.0; max_fires = 0 }) ];
  let dir = Filename.concat root "fleet" in
  let outcome =
    Fun.protect ~finally:Faultpoint.disable (fun () ->
        Orchestrator.run ~dir spec)
  in
  (match outcome with
  | Ok Orchestrator.Completed -> ()
  | Ok Orchestrator.Interrupted -> Alcotest.fail "unexpected interruption"
  | Error e -> Alcotest.failf "fleet: %s" e);
  match Ledger.load ~dir with
  | Error e -> Alcotest.failf "ledger: %s" e
  | Ok l ->
      let _, _, d, q = Ledger.counts l in
      check int "both shards quarantined" 2 q;
      check int "none done" 0 d;
      Array.iter
        (fun sh ->
          check int
            (Printf.sprintf "shard %d exhausted its attempts" sh.Ledger.sh_id)
            3 sh.Ledger.sh_attempts)
        l.Ledger.shards

(* A ledger write that keeps failing ends the run with an [Error] naming
   the ledger, never an exception, and leaves no worker behind: first
   under an injected fault on every write (the first save fails, before
   any lease), then with a shard leased — once its worker's monitor
   socket is up, the atomic write's temp path is made a directory, which
   no open for writing accepts, root included. Target 1 campaigns stay
   compliant, so the leased worker is still running when the next save
   (a heartbeat renewal) fails. Last, the in-process reference with its
   merged document's temp path made a directory. *)
let test_unwritable_ledger () =
  Support.with_tmpdir "unwritable" @@ fun root ->
  Unix.mkdir root 0o755;
  let names_ledger dir = function
    | Error e -> contains e (Ledger.ledger_path dir)
    | Ok _ -> false
  in
  let dir = Filename.concat root "injected" in
  Faultpoint.enable ~seed:1L
    [ ("fleet.ledger_write", { Faultpoint.rate = 1.; max_fires = 0 }) ];
  let r =
    Fun.protect ~finally:Faultpoint.disable (fun () ->
        Orchestrator.run ~dir (mk_spec ()))
  in
  check bool "injected: an error naming the ledger" true (names_ledger dir r);
  let dir = Filename.concat root "leased" in
  let spec =
    {
      (mk_spec ~seeds:[ 3L ] ~budget:100_000 ~workers:1 ~lease:2. ()) with
      Ledger.sp_target = "Target 1";
    }
  in
  let blocked = ref false in
  let should_stop () =
    if (not !blocked) && Sys.file_exists (Ledger.shard_sock dir 0) then begin
      Unix.mkdir (Ledger.ledger_path dir ^ ".tmp") 0o755;
      blocked := true
    end;
    false
  in
  let r =
    match Orchestrator.run ~dir ~should_stop spec with
    | r -> r
    | exception e ->
        (* Do not leave the worker running behind a failed test. *)
        (match Ledger.load ~dir with
        | Ok l ->
            Array.iter
              (fun sh ->
                match sh.Ledger.sh_state with
                | Ledger.Leased { pid; _ } -> (
                    try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
                | _ -> ())
              l.Ledger.shards
        | Error _ -> ());
        raise e
  in
  check bool "leased: the worker was up when writes started failing" true
    !blocked;
  check bool "leased: an error naming the ledger" true (names_ledger dir r);
  (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> Alcotest.failf "a child outlived the run (waitpid: %d)" pid);
  (* The in-process reference reports an unwritable merged document the
     same way. *)
  let dir = Filename.concat root "reference" in
  Unix.mkdir dir 0o755;
  Unix.mkdir (Ledger.merged_path dir ^ ".tmp") 0o755;
  match Orchestrator.reference ~dir (mk_spec ~seeds:[ 5L ] ~budget:5 ()) with
  | Error e ->
      check bool "reference: an error naming merged.json" true
        (contains e (Ledger.merged_path dir))
  | Ok () -> Alcotest.fail "reference: the run succeeded"

(* --- interruption and resume ------------------------------------------- *)

let test_interrupt_resume () =
  Support.with_tmpdir "interrupt" @@ fun root ->
  Unix.mkdir root 0o755;
  let spec = mk_spec ~lease:5. () in
  let ref_bytes = reference_bytes ~dir:(Filename.concat root "ref") spec in
  let dir = Filename.concat root "fleet" in
  (* Stop the orchestrator after a few ticks, mid-campaign. *)
  let ticks = ref 0 in
  let should_stop () =
    incr ticks;
    !ticks > 6
  in
  (match Orchestrator.run ~dir ~should_stop spec with
  | Ok Orchestrator.Interrupted -> ()
  | Ok Orchestrator.Completed ->
      (* So fast every shard finished before the stop: still a valid
         run; the resume below is then a no-op completion. *)
      ()
  | Error e -> Alcotest.failf "fleet run: %s" e);
  (match Orchestrator.resume ~dir () with
  | Ok Orchestrator.Completed -> ()
  | Ok Orchestrator.Interrupted -> Alcotest.fail "resume interrupted"
  | Error e -> Alcotest.failf "resume: %s" e);
  check string "interrupted+resumed == reference (bytes)" ref_bytes
    (read_file (Ledger.merged_path dir))

(* A backoff gate past the policy's cap (here: a finished fleet's ledger
   with one shard put back to pending behind a gate at 1e300 seconds)
   is clamped on resume, so the shard is adopted and the fleet completes
   with the reference's bytes instead of waiting for ever. *)
let test_resume_clamps_far_gates () =
  Support.with_tmpdir "gate" @@ fun root ->
  Unix.mkdir root 0o755;
  let spec = mk_spec ~seeds:[ 5L; 6L ] () in
  let dir = Filename.concat root "fleet" in
  let ref_bytes = reference_bytes ~dir spec in
  (match Ledger.load ~dir with
  | Error e -> Alcotest.failf "ledger: %s" e
  | Ok l ->
      let sh = l.Ledger.shards.(0) in
      sh.Ledger.sh_state <- Ledger.Pending;
      sh.Ledger.sh_not_before <- 1e300;
      Ledger.save l);
  let deadline = Unix.gettimeofday () +. 30. in
  (match
     Orchestrator.resume ~dir
       ~should_stop:(fun () -> Unix.gettimeofday () > deadline)
       ()
   with
  | Ok Orchestrator.Completed -> ()
  | Ok Orchestrator.Interrupted -> Alcotest.fail "still gated after 30 s"
  | Error e -> Alcotest.failf "resume: %s" e);
  check string "resumed fleet == reference (bytes)" ref_bytes
    (read_file (Ledger.merged_path dir))

(* Satellite 3: SIGKILL the orchestrator process mid-campaign; the
   ledger and the shard checkpoints alone must reconstruct the fleet,
   and the resumed campaign's merged corpus must be byte-identical to
   an uninterrupted run's. *)
let test_sigkill_orchestrator_resume () =
  Support.with_tmpdir "sigkill" @@ fun root ->
  Unix.mkdir root 0o755;
  (* Seeds without early violations so the campaign is still in flight
     ~0.5s in, whatever the machine speed. *)
  let spec =
    mk_spec ~seeds:[ 11L; 12L; 13L ] ~budget:400 ~inputs:30 ~ckpt:10
      ~lease:5. ()
  in
  let ref_bytes = reference_bytes ~dir:(Filename.concat root "ref") spec in
  let dir = Filename.concat root "fleet" in
  flush stdout;
  flush stderr;
  (match Unix.fork () with
  | 0 ->
      (* The orchestrator process about to be murdered. *)
      (try ignore (Orchestrator.run ~dir spec) with _ -> ());
      Unix._exit 0
  | orch ->
      (* Let it spawn workers and make progress, then SIGKILL it. *)
      Unix.sleepf 0.6;
      (try Unix.kill orch Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] orch));
  check bool "ledger survives the kill" true (Ledger.exists ~dir);
  (match Orchestrator.resume ~dir () with
  | Ok Orchestrator.Completed -> ()
  | Ok Orchestrator.Interrupted -> Alcotest.fail "resume interrupted"
  | Error e -> Alcotest.failf "resume: %s" e);
  check string "SIGKILLed orchestrator + resume == reference (bytes)"
    ref_bytes
    (read_file (Ledger.merged_path dir))

(* --- monitor client loss (satellite 1) --------------------------------- *)

let test_monitor_client_lost () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "revizor-lost-%d.sock" (Unix.getpid ()))
  in
  let m = Monitor.create ~path in
  Fun.protect ~finally:(fun () -> Monitor.close m) @@ fun () ->
  let before = counter "monitor.client_lost" in
  (* Connect, fire a request, vanish before the reply: the server's
     write hits a closed peer. Before the SIGPIPE guard this killed the
     whole campaign process. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  ignore (Unix.write_substring fd "prom\n" 0 5);
  Unix.close fd;
  for _ = 1 to 10 do
    Monitor.poll m;
    ignore (Unix.select [] [] [] 0.005)
  done;
  Monitor.drain ~timeout:0.05 m;
  check bool "campaign survived the vanished client" true true;
  check bool "loss was counted" true (counter "monitor.client_lost" > before)

let test_monitor_drain_bounded () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "revizor-drain-%d.sock" (Unix.getpid ()))
  in
  let m = Monitor.create ~path in
  Fun.protect ~finally:(fun () -> Monitor.close m) @@ fun () ->
  (* No clients: the drain returns immediately, not after the timeout. *)
  let t0 = Unix.gettimeofday () in
  Monitor.drain ~timeout:5. m;
  check bool "idle drain is immediate" true (Unix.gettimeofday () -. t0 < 1.);
  (* A connected-but-silent client cannot hold shutdown past the bound. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let t0 = Unix.gettimeofday () in
  Monitor.drain ~timeout:0.15 m;
  let elapsed = Unix.gettimeofday () -. t0 in
  Unix.close fd;
  check bool "stuck client bounded by timeout" true (elapsed < 2.)

let () =
  Alcotest.run "fleet"
    [
      ( "backoff",
        [
          tc "deterministic capped full-jitter backoff" `Quick test_backoff;
          tc "atomic_file retries under the backoff policy" `Quick
            test_atomic_file_backoff;
          tc "failing control-plane writes give up after four attempts"
            `Quick test_control_plane_write_attempts;
        ] );
      ( "ledger",
        [
          tc "codec round-trip and lease persistence" `Quick
            test_ledger_roundtrip;
          tc "quarantine escalation and revocation" `Quick
            test_ledger_quarantine;
          tc "leased pids below 2 refused" `Quick test_ledger_refuses_low_pids;
          tc "spec fingerprint guards the directory" `Quick
            test_fingerprint_guard;
        ] );
      ( "merge",
        [
          tc "atlas merge is commutative/associative/idempotent" `Quick
            test_ucoverage_merge;
          tc "corpus commits are idempotent and crash-safe" `Quick
            test_merge_idempotent;
        ] );
      ( "recovery",
        [
          tc "fleet == sequential reference, byte-identical" `Slow
            test_fleet_matches_reference;
          tc "chaos matrix == reference, nothing lost or duplicated" `Slow
            test_chaos_matrix;
          tc "poisoned shards escalate into quarantine" `Slow
            test_quarantine_escalation;
          tc "interrupt + resume == reference" `Slow test_interrupt_resume;
          tc "resume clamps gates past the backoff cap" `Slow
            test_resume_clamps_far_gates;
          tc "SIGKILLed orchestrator + resume == reference" `Slow
            test_sigkill_orchestrator_resume;
          tc "an unwritable ledger ends the run with an error" `Slow
            test_unwritable_ledger;
        ] );
      ( "monitor",
        [
          tc "client loss is swallowed and counted" `Quick
            test_monitor_client_lost;
          tc "post-campaign drain is time-bounded" `Quick
            test_monitor_drain_bounded;
        ] );
    ]
