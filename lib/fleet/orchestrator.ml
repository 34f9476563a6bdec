(* The fleet orchestrator: a single-domain control loop that hands
   shards to forked worker processes under time-bounded leases, watches
   their liveness over the monitor sockets they already serve, and
   folds finished shards into the central merge document.

   One tick = reap exited workers (waitpid WNOHANG) -> heartbeat leased
   workers (any monitor reply renews the lease) -> revoke expired leases
   (SIGKILL + requeue from the shard's checkpoint) -> adopt pending
   shards onto free worker slots. Any state change persists the whole
   ledger atomically before the next tick, and the merged document is
   persisted *before* a shard is marked Done — the crash window between
   the two costs one redundant (checkpoint-cheap) shard re-run that the
   merge journal absorbs as a no-op, never a lost or duplicated result.

   The orchestrator process must stay single-domain: workers are
   [Unix.fork] children (safe because nothing else runs concurrently in
   the parent at fork time), and children [Unix._exit] without touching
   inherited stdio buffers. *)

open Revizor
module Json = Revizor_obs.Json
module Faultpoint = Revizor_obs.Faultpoint
module Monitor = Revizor_obs.Monitor

type outcome = Completed | Interrupted

(* [fleet.spawn]: an adoption attempt that never produces a worker.
   [fleet.heartbeat]: one liveness probe silently lost. *)
let fp_spawn = Faultpoint.point "fleet.spawn"
let fp_heartbeat = Faultpoint.point "fleet.heartbeat"

let ( let* ) = Result.bind

(* --- status socket provider ------------------------------------------- *)

let state_name = function
  | Ledger.Pending -> "pending"
  | Ledger.Leased _ -> "leased"
  | Ledger.Done -> "done"
  | Ledger.Quarantined -> "quarantined"

let provider (ledger : Ledger.t) merged cmd =
  let counts_json () =
    let p, l, d, q = Ledger.counts ledger in
    Json.Obj
      [
        ("pending", Json.Int p);
        ("leased", Json.Int l);
        ("done", Json.Int d);
        ("quarantined", Json.Int q);
      ]
  in
  match cmd with
  | "health" -> Some [ ("status", Json.String "ok") ]
  | "status" ->
      Some
        [
          ("role", Json.String "fleet");
          ( "state",
            Json.String (if Ledger.finished ledger then "finished" else "running") );
          ("fingerprint", Json.String (Ledger.fingerprint ledger.Ledger.spec));
          ("total_shards", Json.Int (Array.length ledger.Ledger.shards));
          ("shards", counts_json ());
          ("violations", Json.Int (List.length (Merge.violations merged)));
          ("merged_features", Json.Int (Ucoverage.distinct (Merge.atlas merged)));
        ]
  | "shards" ->
      Some
        [
          ("counts", counts_json ());
          ( "shards",
            Json.List
              (Array.to_list
                 (Array.map
                    (fun sh ->
                      Json.Obj
                        ([
                           ("id", Json.Int sh.Ledger.sh_id);
                           ( "seed",
                             Json.String (Printf.sprintf "0x%Lx" sh.Ledger.sh_seed) );
                           ("state", Json.String (state_name sh.Ledger.sh_state));
                           ("attempts", Json.Int sh.Ledger.sh_attempts);
                         ]
                        @
                        match sh.Ledger.sh_state with
                        | Ledger.Leased { pid; expires; _ } ->
                            [ ("pid", Json.Int pid); ("expires", Json.Float expires) ]
                        | _ -> []))
                    ledger.Ledger.shards)) );
        ]
  | _ -> None

(* --- the control loop -------------------------------------------------- *)

(* Persist a finished shard: merged.json first, ledger Done second (see
   the module comment for why this order is the safe one). Any failure
   — unreadable result, injected merge fault past its retries — demotes
   to a normal shard failure: backoff, requeue, eventually quarantine. *)
let complete_or_fail ~log ledger merged sh ~now =
  let dir = ledger.Ledger.dir in
  match Worker.load_result ~dir sh.Ledger.sh_id with
  | Ok r -> (
      match
        (* Unconditional save: an earlier save may have failed after the
           in-memory commit, so "already journaled" does not imply
           "already on disk". Idempotent either way. *)
        ignore (Merge.commit merged r);
        Merge.save ~dir ~spec:ledger.Ledger.spec merged
      with
      | () ->
          Ledger.mark_done sh;
          log
            (Printf.sprintf "shard %d done (attempt %d)%s" sh.Ledger.sh_id
               sh.Ledger.sh_attempts
               (match r.Worker.r_violation with
               | Some v -> ": violation " ^ v.Worker.v_label
               | None -> ""))
      | exception e ->
          log
            (Printf.sprintf "shard %d: merge failed (%s); requeueing"
               sh.Ledger.sh_id (Printexc.to_string e));
          Ledger.mark_failed ledger sh ~now)
  | Error e ->
      log (Printf.sprintf "shard %d: %s; requeueing" sh.Ledger.sh_id e);
      Ledger.mark_failed ledger sh ~now

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* A control-plane write that fails after [Atomic_file.write]'s own
   retries ends the run with an error naming the file and the cause: the
   fleet can no longer record its progress. *)
let saved path save =
  match save () with
  | () -> Ok ()
  | exception e ->
      let cause =
        match e with
        | Sys_error m -> m
        | Faultpoint.Injected p -> "injected fault " ^ p
        | e -> Printexc.to_string e
      in
      Error (Printf.sprintf "fleet: cannot write %s: %s" path cause)

let save_ledger (ledger : Ledger.t) =
  saved (Ledger.ledger_path ledger.Ledger.dir) (fun () -> Ledger.save ledger)

exception Unwritable of string

let drive ~log (ledger : Ledger.t) merged ~should_stop =
  let dir = ledger.Ledger.dir in
  let spec = ledger.Ledger.spec in
  let mon =
    match Monitor.create ~path:(Ledger.fleet_sock dir) with
    | m ->
        Monitor.set_provider m (provider ledger merged);
        Some m
    | exception Unix.Unix_error _ -> None
  in
  let hb_interval = Float.max 0.05 (spec.Ledger.sp_lease_s /. 4.) in
  let hb_timeout = Float.min 0.25 hb_interval in
  let last_hb : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let hb_seq : (int, int) Hashtbl.t = Hashtbl.create 16 in
  (* A no-op SIGCHLD handler makes a worker's exit interrupt the tick
     select with EINTR, so exits are noticed immediately while the idle
     tick stays long — frequent polling would evict the worker's cache
     working set on small machines and tax every shard a few percent. *)
  let old_sigchld =
    try Some (Sys.signal Sys.sigchld (Sys.Signal_handle (fun _ -> ())))
    with Sys_error _ | Invalid_argument _ -> None
  in
  let save () =
    match save_ledger ledger with Ok () -> () | Error e -> raise (Unwritable e)
  in
  let rec loop () =
    if should_stop () then begin
      Array.iter
        (fun sh ->
          match sh.Ledger.sh_state with
          | Ledger.Leased { pid; _ } ->
              kill_and_reap pid;
              Ledger.mark_revoked sh
          | _ -> ())
        ledger.Ledger.shards;
      save ();
      Interrupted
    end
    else if Ledger.finished ledger then Completed
    else begin
      let now = Unix.gettimeofday () in
      let changed = ref false in
      (* 1. Reap exited workers; the result file, not the exit status,
         decides success — a worker may die after writing it. *)
      Array.iter
        (fun sh ->
          match sh.Ledger.sh_state with
          | Ledger.Leased { pid; _ } -> (
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ -> ()
              | _ ->
                  changed := true;
                  complete_or_fail ~log ledger merged sh ~now
              | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                  changed := true;
                  complete_or_fail ~log ledger merged sh ~now)
          | _ -> ())
        ledger.Ledger.shards;
      (* 2. Heartbeats: a complete [health] reply over the worker's
         monitor socket renews its lease, bounded by [hb_timeout]; no
         reply is simply no renewal (only lease expiry revokes).
         [fleet.heartbeat] simulates a lost probe. *)
      Array.iter
        (fun sh ->
          match sh.Ledger.sh_state with
          | Ledger.Leased _ ->
              let id = sh.Ledger.sh_id in
              let last = Option.value ~default:0. (Hashtbl.find_opt last_hb id) in
              if now -. last >= hb_interval then begin
                Hashtbl.replace last_hb id now;
                let seq = Option.value ~default:0 (Hashtbl.find_opt hb_seq id) in
                Hashtbl.replace hb_seq id (seq + 1);
                let lost =
                  Faultpoint.enabled ()
                  && begin
                       Faultpoint.set_context
                         ~salt:
                           (Int64.logxor
                              (Int64.add spec.Ledger.sp_fleet_seed
                                 (Int64.of_int (id * 8191)))
                              (Int64.of_int (seq * 131)));
                       Faultpoint.should_fire fp_heartbeat
                     end
                in
                if
                  (not lost)
                  && Result.is_ok
                       (Monitor.request ~timeout:hb_timeout
                          ~path:(Ledger.shard_sock dir id) "health")
                then begin
                  Ledger.renew sh ~now ~lease_s:spec.Ledger.sp_lease_s;
                  changed := true
                end
              end
          | _ -> ())
        ledger.Ledger.shards;
      (* 3. Expired leases: SIGKILL the worker and requeue the shard
         from its checkpoint (unless it finished right at the wire). *)
      Array.iter
        (fun sh ->
          match sh.Ledger.sh_state with
          | Ledger.Leased { pid; expires; _ } when now > expires ->
              log
                (Printf.sprintf "shard %d: lease expired; killing pid %d"
                   sh.Ledger.sh_id pid);
              kill_and_reap pid;
              changed := true;
              if Worker.result_exists ~dir sh.Ledger.sh_id then
                complete_or_fail ~log ledger merged sh ~now
              else Ledger.mark_failed ledger sh ~now
          | _ -> ())
        ledger.Ledger.shards;
      (* 4. Adopt pending shards onto free slots. *)
      let _, leased, _, _ = Ledger.counts ledger in
      let free = ref (spec.Ledger.sp_workers - leased) in
      Array.iter
        (fun sh ->
          if !free > 0 then
            match sh.Ledger.sh_state with
            | Ledger.Pending when sh.Ledger.sh_not_before <= now -> (
                changed := true;
                match
                  if Faultpoint.enabled () then begin
                    Faultpoint.set_context
                      ~salt:
                        (Int64.logxor
                           (Int64.add spec.Ledger.sp_fleet_seed
                              (Int64.of_int (sh.Ledger.sh_id * 127)))
                           (Int64.of_int (sh.Ledger.sh_attempts * 7919)));
                    Faultpoint.fire fp_spawn
                  end
                with
                | exception Faultpoint.Injected _ ->
                    log
                      (Printf.sprintf "shard %d: spawn fault injected"
                         sh.Ledger.sh_id);
                    Ledger.mark_failed ledger sh ~now
                | () -> (
                    flush stdout;
                    flush stderr;
                    match Unix.fork () with
                    | 0 ->
                        Worker.child_main ~dir ~spec ~shard_id:sh.Ledger.sh_id
                          ~seed:sh.Ledger.sh_seed ~attempt:sh.Ledger.sh_attempts
                    | pid ->
                        Ledger.lease sh ~pid ~now
                          ~lease_s:spec.Ledger.sp_lease_s;
                        Hashtbl.replace last_hb sh.Ledger.sh_id now;
                        decr free
                    | exception Unix.Unix_error _ ->
                        Ledger.mark_failed ledger sh ~now))
            | _ -> ())
        ledger.Ledger.shards;
      if !changed then save ();
      Option.iter Monitor.poll mon;
      (* Long tick: SIGCHLD breaks the select out early (EINTR) when a
         worker exits, so this only bounds heartbeat/expiry latency. *)
      if not (Ledger.finished ledger) then (
        try ignore (Unix.select [] [] [] 0.05)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  let result =
    match
      save ();
      loop ()
    with
    | outcome -> Ok outcome
    | exception Unwritable e ->
        (* No worker outlives the run it belongs to. *)
        Array.iter
          (fun sh ->
            match sh.Ledger.sh_state with
            | Ledger.Leased { pid; _ } -> kill_and_reap pid
            | _ -> ())
          ledger.Ledger.shards;
        Error e
  in
  Option.iter (fun b -> Sys.set_signal Sys.sigchld b) old_sigchld;
  Option.iter
    (fun m ->
      Monitor.drain ~timeout:0.1 m;
      Monitor.close m)
    mon;
  result

(* --- entry points ------------------------------------------------------ *)

let null_log _ = ()

let resume_ledger ~log (ledger : Ledger.t) merged =
  (* Revoke stale leases from a dead orchestrator. Kill first: an
     orphan worker still running would race the re-adopted one on the
     same checkpoint/result files. The kill is best-effort (the pid is
     usually long gone, possibly recycled); a finished worker's result
     survives and commits here. *)
  let dir = ledger.Ledger.dir in
  let now = Unix.gettimeofday () in
  Array.iter
    (fun sh ->
      match sh.Ledger.sh_state with
      | Ledger.Leased { pid; _ } ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid)
           with Unix.Unix_error _ -> ());
          if Worker.result_exists ~dir sh.Ledger.sh_id then
            complete_or_fail ~log ledger merged sh ~now
          else begin
            log
              (Printf.sprintf "shard %d: revoking stale lease (pid %d)"
                 sh.Ledger.sh_id pid);
            Ledger.mark_revoked sh
          end
      | _ -> ())
    ledger.Ledger.shards;
  (* A backoff gate is never further out than the policy's cap, however
     the ledger came to say otherwise (an edited file, a clock that has
     since stepped back): past the cap, a pending shard would wait for
     nothing. *)
  let backoff = ledger.Ledger.spec.Ledger.sp_backoff in
  let latest = now +. (backoff.Revizor_obs.Backoff.cap_ms /. 1000.) in
  Array.iter
    (fun sh ->
      match sh.Ledger.sh_state with
      | Ledger.Pending when not (sh.Ledger.sh_not_before <= latest) ->
          sh.Ledger.sh_not_before <- latest
      | _ -> ())
    ledger.Ledger.shards;
  save_ledger ledger

let resume ~dir ?(log = null_log) ?(should_stop = fun () -> false) () =
  let* ledger = Ledger.load ~dir in
  let* merged = Merge.load ~dir ~spec:ledger.Ledger.spec in
  let* () = resume_ledger ~log ledger merged in
  drive ~log ledger merged ~should_stop

let run ~dir ?(log = null_log) ?(should_stop = fun () -> false) spec =
  Revizor_obs.Dir.mkdir_p dir;
  if Ledger.exists ~dir then
    let* existing = Ledger.load ~dir in
    if Ledger.fingerprint existing.Ledger.spec <> Ledger.fingerprint spec then
      Error
        (Printf.sprintf
           "fleet: %s already holds a different campaign (fingerprint %s, \
            this spec is %s) — use a fresh directory or `fleet resume`"
           dir
           (Ledger.fingerprint existing.Ledger.spec)
           (Ledger.fingerprint spec))
    else begin
      log "existing ledger matches this spec; resuming";
      resume ~dir ~log ~should_stop ()
    end
  else begin
    let ledger = Ledger.create ~dir spec in
    let merged = Merge.create ~spec in
    drive ~log ledger merged ~should_stop
  end

(* In-process sequential reference: same shards, same merge code, no
   forking, no faults — the byte-identity baseline for fleet runs. *)
let reference ~dir ?(log = null_log) spec =
  Revizor_obs.Dir.mkdir_p dir;
  let ledger = Ledger.create ~dir spec in
  let merged = Merge.create ~spec in
  let rec go i =
    if i >= Array.length ledger.Ledger.shards then Ok ()
    else
      let sh = ledger.Ledger.shards.(i) in
      match
        Worker.run_shard ~dir ~spec ~shard_id:sh.Ledger.sh_id
          ~seed:sh.Ledger.sh_seed ~attempt:0 ()
      with
      | Error _ as e -> e
      | Ok r ->
          let* () =
            saved (Ledger.shard_result dir sh.Ledger.sh_id) (fun () ->
                Worker.save_result ~dir r)
          in
          ignore (Merge.commit merged r);
          Ledger.mark_done sh;
          log (Printf.sprintf "shard %d done (reference)" sh.Ledger.sh_id);
          go (i + 1)
  in
  let* () = go 0 in
  let* () =
    saved (Ledger.merged_path dir) (fun () -> Merge.save ~dir ~spec merged)
  in
  save_ledger ledger
