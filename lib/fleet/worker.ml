(* One shard's campaign: the existing [Fuzzer.fuzz] loop under the
   fleet's per-shard checkpoint, result and monitor-socket files.

   The same [run_shard] body serves three callers: the forked worker
   process ([child_main]), a re-adoption after a crash (identical call,
   higher [attempt] — the checkpoint on disk makes it continue
   bit-for-bit), and the in-process sequential reference runner the
   tests and CI diff fleet output against. Determinism of the whole
   fleet reduces to determinism of this function, which PR 5's
   checkpoint/resume guarantee already gives.

   Chaos points: [fleet.worker_crash] (abrupt [_exit], as if SIGKILLed)
   and [fleet.worker_hang] (stops polling forever, so the lease expires)
   are checked at every test-case boundary under a context salted with
   (shard seed, attempt, test case). The attempt number *must* be in the
   salt: a schedule salted only by the test case would re-fire the same
   crash at the same test case after every re-adoption, turning any
   armed crash rate into a deterministic quarantine. *)

open Revizor
module Json = Revizor_obs.Json
module Faultpoint = Revizor_obs.Faultpoint
module Monitor = Revizor_obs.Monitor

let schema = "revizor.shard-result.v1"

(* [fleet.worker_crash]: an abrupt [Unix._exit 70] at a test-case
   boundary, as if the worker were SIGKILLed. [fleet.worker_hang]: the
   worker stops polling forever, so its lease expires and the
   orchestrator kills and re-adopts it. *)
let fp_crash = Faultpoint.point "fleet.worker_crash"
let fp_hang = Faultpoint.point "fleet.worker_hang"

type violation_entry = {
  v_tc : int;  (* stats.test_cases at detection *)
  v_label : string;
  v_summary : string;
  v_program : string;  (* violation.asm text *)
  v_inputs : string list;  (* Results.input_to_line lines *)
}

type result = {
  r_shard : int;
  r_seed : int64;
  r_attempt : int;  (* adoption attempt that completed the shard *)
  r_violation : violation_entry option;
  r_stats : Fuzzer.stats;  (* elapsed_s zeroed: wall time is not content *)
  r_atlas : Ucoverage.t;
}

let config_of_spec (spec : Ledger.spec) ~seed =
  match (Target.find spec.Ledger.sp_target, Contract.of_name spec.Ledger.sp_contract) with
  | None, _ ->
      Error (Printf.sprintf "fleet: unknown target %S" spec.Ledger.sp_target)
  | _, Error e -> Error (Printf.sprintf "fleet: %s" e)
  | Some target, Ok contract ->
      Ok
        (Target.fuzzer_config ~seed ~n_inputs:spec.Ledger.sp_n_inputs contract
           target)

(* Chaos-schedule salt: shard identity x adoption attempt x test case. *)
let chaos_salt ~seed ~attempt ~tc =
  Int64.logxor
    (Int64.logxor seed (Int64.mul (Int64.of_int (attempt + 1)) 0x9E3779B97F4A7C15L))
    (Int64.mul (Int64.of_int tc) 6271L)

let run_shard ?monitor_path ?(chaos = false) ~dir ~(spec : Ledger.spec)
    ~shard_id ~seed ~attempt () =
  match config_of_spec spec ~seed with
  | Error _ as e -> e
  | Ok cfg -> (
      let ckpt = Ledger.shard_checkpoint dir shard_id in
      let resume =
        if Sys.file_exists ckpt then
          match Campaign.load ~path:ckpt cfg with
          | Ok s -> Ok (Some s)
          | Error e -> Error e
        else Ok None
      in
      match resume with
      | Error _ as e -> e
      | Ok resume ->
          let monitor = Option.map (fun path -> Monitor.create ~path) monitor_path in
          let on_progress =
            if chaos then (fun (s : Fuzzer.stats) ->
              if Faultpoint.enabled () then begin
                let tc = s.Fuzzer.test_cases in
                (* Fresh context for the chaos draws; the fuzz loop
                   re-opens its own test-case context before the next
                   test case, so nothing else draws under this one. *)
                Faultpoint.set_context ~salt:(chaos_salt ~seed ~attempt ~tc);
                if Faultpoint.should_fire fp_crash then
                  (* As if SIGKILLed: no flush, no cleanup — the last
                     periodic checkpoint is all that survives. *)
                  Unix._exit 70;
                if Faultpoint.should_fire fp_hang then
                  (* Stop polling forever; the orchestrator's heartbeats
                     go unanswered, the lease expires, the worker is
                     killed and the shard re-adopted. *)
                  while true do
                    Unix.sleepf 0.05
                  done
              end)
            else fun _ -> ()
          in
          let ucov = Ucoverage.create () in
          let outcome, stats =
            Fuzzer.fuzz ~on_progress ?resume
              ~checkpoint_every:spec.Ledger.sp_checkpoint_every
              ~on_checkpoint:(fun snap -> Campaign.save ~path:ckpt cfg snap)
              ?monitor ~ucoverage:ucov cfg
              ~budget:(Fuzzer.Test_cases spec.Ledger.sp_budget)
          in
          (match monitor with
          | Some m ->
              Monitor.drain ~timeout:0.05 m;
              Monitor.close m
          | None -> ());
          stats.Fuzzer.elapsed_s <- 0.;
          let r_violation =
            match outcome with
            | Fuzzer.No_violation -> None
            | Fuzzer.Violation v ->
                Some
                  {
                    v_tc = stats.Fuzzer.test_cases;
                    v_label = v.Violation.label;
                    v_summary = Violation.summary v;
                    v_program =
                      Revizor_isa.Program.to_string v.Violation.program;
                    v_inputs = List.map Results.input_to_line v.Violation.inputs;
                  }
          in
          Ok
            {
              r_shard = shard_id;
              r_seed = seed;
              r_attempt = attempt;
              r_violation;
              r_stats = stats;
              r_atlas = ucov;
            })

(* --- result codec ------------------------------------------------------ *)

let violation_to_json v =
  Json.Obj
    [
      ("tc", Json.Int v.v_tc);
      ("label", Json.String v.v_label);
      ("summary", Json.String v.v_summary);
      ("program", Json.String v.v_program);
      ("inputs", Json.List (List.map (fun l -> Json.String l) v.v_inputs));
    ]

let to_json r =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("shard", Json.Int r.r_shard);
      ("seed", Json.hex64 r.r_seed);
      ("attempt", Json.Int r.r_attempt);
      ( "violation",
        match r.r_violation with
        | None -> Json.Null
        | Some v -> violation_to_json v );
      ("stats", Fuzzer.stats_to_json r.r_stats);
      ("ucoverage", Ucoverage.to_json r.r_atlas);
    ]

let ( let* ) = Result.bind

let violation_of_json j =
  let* v_tc = Json.field "tc" Json.int j in
  let* v_label = Json.field "label" Json.str j in
  let* v_summary = Json.field "summary" Json.str j in
  let* v_program = Json.field "program" Json.str j in
  let* v_inputs = Json.field "inputs" (Json.list Json.str) j in
  Ok { v_tc; v_label; v_summary; v_program; v_inputs }

let decoder j =
  let* () = Json.check_schema schema j in
  let* r_shard = Json.field "shard" Json.int j in
  let* r_seed = Json.field "seed" Json.int64 j in
  let* r_attempt = Json.field "attempt" Json.int j in
  let* r_violation = Json.field_opt "violation" violation_of_json j in
  let* r_stats = Json.field "stats" Fuzzer.stats_of_json j in
  let* r_atlas = Json.field "ucoverage" Ucoverage.of_json j in
  Ok { r_shard; r_seed; r_attempt; r_violation; r_stats; r_atlas }

let of_json = Json.decode ~codec:"shard result" decoder

let save_result ~dir r =
  Revizor_obs.Atomic_file.write
    (Ledger.shard_result dir r.r_shard)
    (Json.to_string_pretty (to_json r) ^ "\n")

let load_result ~dir shard_id =
  Json.load ~codec:"shard result" decoder (Ledger.shard_result dir shard_id)

let result_exists ~dir shard_id = Sys.file_exists (Ledger.shard_result dir shard_id)

(* --- forked worker entry ----------------------------------------------- *)

(* Runs in the freshly forked child; never returns. [Unix._exit] (not
   [exit]) on every path: the child shares the parent's stdio buffers
   and [at_exit] handlers, and must not flush or run either. Signal
   dispositions are reset so a terminal Ctrl-C aimed at the orchestrator
   does not trip the parent's graceful-shutdown handler inside workers —
   worker lifecycle belongs to the orchestrator (SIGKILL + re-adopt). *)
let child_main ~dir ~(spec : Ledger.spec) ~shard_id ~seed ~attempt =
  (try Sys.set_signal Sys.sigint Sys.Signal_default with _ -> ());
  (try Sys.set_signal Sys.sigterm Sys.Signal_default with _ -> ());
  (try Sys.set_signal Sys.sigchld Sys.Signal_default with _ -> ());
  let code =
    match
      run_shard
        ~monitor_path:(Ledger.shard_sock dir shard_id)
        ~chaos:true ~dir ~spec ~shard_id ~seed ~attempt ()
    with
    | Ok r ->
        save_result ~dir r;
        0
    | Error _ -> 71
    | exception _ -> 71
  in
  Unix._exit code
