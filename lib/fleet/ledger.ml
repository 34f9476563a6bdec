(* The lease-based shard ledger: the fleet's single source of truth.

   A campaign spec is sharded into one descriptor per seed; every shard
   moves through the state machine

     Pending -> Leased {pid; expires; attempt} -> Done
        ^            |                             (terminal)
        |            v (crash / hang / lost spawn)
        +--- backoff gate (not_before) --- attempts >= max --> Quarantined

   and every transition is persisted by an atomic tmp+rename write of
   the whole ledger ([revizor.ledger.v1]). The ledger plus the per-shard
   checkpoint files are the orchestrator's complete durable state: a
   SIGKILLed orchestrator resumes from them alone, and because shard
   computation is checkpoint-resumable bit-for-bit, the resumed fleet's
   merged results are identical to an uninterrupted run's.

   Wall-clock fields (lease expiry, backoff gates) are absolute times:
   after a resume they are either honored (future) or trivially
   satisfied (past), never re-derived from a lost process clock. *)

module Json = Revizor_obs.Json
module Backoff = Revizor_obs.Backoff
module Faultpoint = Revizor_obs.Faultpoint

let schema = "revizor.ledger.v1"
let version = 1

type spec = {
  sp_target : string;  (* Target.find key, e.g. "Target 5" *)
  sp_contract : string;  (* Contract.of_name key, e.g. "CT-SEQ" *)
  sp_seeds : int64 list;  (* one shard per campaign seed *)
  sp_budget : int;  (* test cases per shard *)
  sp_n_inputs : int;
  sp_checkpoint_every : int;
  sp_workers : int;
  sp_lease_s : float;
  sp_max_attempts : int;
  sp_fleet_seed : int64;  (* jitter key for the re-adoption backoff *)
  sp_backoff : Backoff.policy;
}

let default_spec ~target ~contract ~seeds =
  {
    sp_target = target;
    sp_contract = contract;
    sp_seeds = seeds;
    sp_budget = 500;
    sp_n_inputs = 50;
    sp_checkpoint_every = 10;
    sp_workers = 2;
    sp_lease_s = 5.;
    sp_max_attempts = 5;
    sp_fleet_seed = 42L;
    sp_backoff = { Backoff.base_ms = 50.; cap_ms = 2000. };
  }

(* Only the result-shaping fields fingerprint: orchestration knobs
   (worker count, lease length, backoff, checkpoint cadence) may differ
   between a run and its resume without changing any merged byte, the
   same contract [Campaign]'s fingerprint gives checkpoints. *)
let canonical spec =
  Printf.sprintf "target=%s;contract=%s;seeds=%s;budget=%d;n_inputs=%d"
    (String.lowercase_ascii spec.sp_target)
    spec.sp_contract
    (String.concat "," (List.map (Printf.sprintf "0x%Lx") spec.sp_seeds))
    spec.sp_budget spec.sp_n_inputs

let fingerprint spec =
  Printf.sprintf "%016Lx" (Revizor_obs.Hash.fnv1a (canonical spec))

type state =
  | Pending
  | Leased of { pid : int; expires : float; attempt : int }
  | Done
  | Quarantined

type shard = {
  sh_id : int;
  sh_seed : int64;
  mutable sh_state : state;
  mutable sh_attempts : int;  (* failed adoption attempts so far *)
  mutable sh_not_before : float;  (* absolute backoff gate for re-adoption *)
}

type t = { dir : string; spec : spec; shards : shard array }

(* --- canonical fleet paths ------------------------------------------- *)

let ledger_path dir = Filename.concat dir "ledger.json"
let merged_path dir = Filename.concat dir "merged.json"
let fleet_sock dir = Filename.concat dir "fleet.sock"

let shard_checkpoint dir id =
  Filename.concat dir (Printf.sprintf "shard-%03d.ckpt.json" id)

let shard_result dir id =
  Filename.concat dir (Printf.sprintf "shard-%03d.result.json" id)

let shard_sock dir id = Filename.concat dir (Printf.sprintf "shard-%03d.sock" id)

(* --- construction ----------------------------------------------------- *)

let create ~dir spec =
  {
    dir;
    spec;
    shards =
      Array.of_list
        (List.mapi
           (fun i seed ->
             {
               sh_id = i;
               sh_seed = seed;
               sh_state = Pending;
               sh_attempts = 0;
               sh_not_before = 0.;
             })
           spec.sp_seeds);
  }

(* --- state machine ---------------------------------------------------- *)

(* Deterministic re-adoption gate: capped exponential backoff whose
   jitter is a pure function of (fleet seed, shard id, attempt). *)
let backoff_delay_s spec ~shard_id ~attempt =
  Backoff.delay_ms spec.sp_backoff
    ~key:(Int64.add spec.sp_fleet_seed (Int64.mul (Int64.of_int (shard_id + 1)) 6271L))
    ~attempt
  /. 1000.

let lease sh ~pid ~now ~lease_s =
  sh.sh_state <- Leased { pid; expires = now +. lease_s; attempt = sh.sh_attempts }

let renew sh ~now ~lease_s =
  match sh.sh_state with
  | Leased l -> sh.sh_state <- Leased { l with expires = now +. lease_s }
  | _ -> ()

let mark_done sh = sh.sh_state <- Done

(* One failed adoption: back off, escalate to quarantine past the cap. *)
let mark_failed t sh ~now =
  sh.sh_attempts <- sh.sh_attempts + 1;
  if sh.sh_attempts >= t.spec.sp_max_attempts then sh.sh_state <- Quarantined
  else begin
    sh.sh_state <- Pending;
    sh.sh_not_before <-
      now +. backoff_delay_s t.spec ~shard_id:sh.sh_id ~attempt:sh.sh_attempts
  end

(* Lease revocation that is *not* the shard's fault (orchestrator died):
   back to Pending with no attempt escalation. *)
let mark_revoked sh = sh.sh_state <- Pending

let counts t =
  Array.fold_left
    (fun (p, l, d, q) sh ->
      match sh.sh_state with
      | Pending -> (p + 1, l, d, q)
      | Leased _ -> (p, l + 1, d, q)
      | Done -> (p, l, d + 1, q)
      | Quarantined -> (p, l, d, q + 1))
    (0, 0, 0, 0) t.shards

let finished t =
  Array.for_all
    (fun sh -> match sh.sh_state with Done | Quarantined -> true | _ -> false)
    t.shards

(* --- JSON codec ------------------------------------------------------- *)

let spec_to_json s =
  Json.Obj
    [
      ("target", Json.String s.sp_target);
      ("contract", Json.String s.sp_contract);
      ("seeds", Json.List (List.map Json.hex64 s.sp_seeds));
      ("budget", Json.Int s.sp_budget);
      ("n_inputs", Json.Int s.sp_n_inputs);
      ("checkpoint_every", Json.Int s.sp_checkpoint_every);
      ("workers", Json.Int s.sp_workers);
      ("lease_s", Json.Float s.sp_lease_s);
      ("max_attempts", Json.Int s.sp_max_attempts);
      ("fleet_seed", Json.hex64 s.sp_fleet_seed);
      ("backoff_base_ms", Json.Float s.sp_backoff.Backoff.base_ms);
      ("backoff_cap_ms", Json.Float s.sp_backoff.Backoff.cap_ms);
    ]

let state_to_json = function
  | Pending -> Json.Obj [ ("state", Json.String "pending") ]
  | Leased { pid; expires; attempt } ->
      Json.Obj
        [
          ("state", Json.String "leased");
          ("pid", Json.Int pid);
          ("expires", Json.Float expires);
          ("attempt", Json.Int attempt);
        ]
  | Done -> Json.Obj [ ("state", Json.String "done") ]
  | Quarantined -> Json.Obj [ ("state", Json.String "quarantined") ]

let shard_to_json sh =
  let st_fields =
    match state_to_json sh.sh_state with Json.Obj fields -> fields | _ -> []
  in
  Json.Obj
    ([
       ("id", Json.Int sh.sh_id);
       ("seed", Json.hex64 sh.sh_seed);
       ("attempts", Json.Int sh.sh_attempts);
       ("not_before", Json.Float sh.sh_not_before);
     ]
    @ st_fields)

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("version", Json.Int version);
      ("fingerprint", Json.String (fingerprint t.spec));
      ("spec", spec_to_json t.spec);
      ("shards", Json.List (Array.to_list (Array.map shard_to_json t.shards)));
    ]

let ( let* ) = Result.bind

(* Range checks for the orchestration knobs, which the fingerprint does
   not cover: a ledger edited to zero workers would leave `fleet resume`
   waiting forever on shards nobody runs. *)
let int_at_least lo j =
  let* n = Json.int j in
  if n >= lo then Ok n else Error (Printf.sprintf "%d is below %d" n lo)

let non_negative j =
  let* x = Json.float j in
  if Float.is_finite x && x >= 0. then Ok x
  else Error (Printf.sprintf "%g is not a finite non-negative number" x)

let spec_of_json j =
  let* sp_target = Json.field "target" Json.str j in
  let* sp_contract = Json.field "contract" Json.str j in
  let* sp_seeds = Json.field "seeds" (Json.list Json.int64) j in
  let* sp_budget = Json.field "budget" Json.int j in
  let* sp_n_inputs = Json.field "n_inputs" Json.int j in
  let* sp_checkpoint_every = Json.field "checkpoint_every" Json.int j in
  let* sp_workers = Json.field "workers" (int_at_least 1) j in
  let* sp_lease_s = Json.field "lease_s" non_negative j in
  let* sp_max_attempts = Json.field "max_attempts" (int_at_least 0) j in
  let* sp_fleet_seed = Json.field "fleet_seed" Json.int64 j in
  let* base_ms = Json.field "backoff_base_ms" non_negative j in
  let* cap_ms = Json.field "backoff_cap_ms" non_negative j in
  Ok
    {
      sp_target;
      sp_contract;
      sp_seeds;
      sp_budget;
      sp_n_inputs;
      sp_checkpoint_every;
      sp_workers;
      sp_lease_s;
      sp_max_attempts;
      sp_fleet_seed;
      sp_backoff = { Backoff.base_ms; cap_ms };
    }

let shard_of_json j =
  let* sh_id = Json.field "id" Json.int j in
  let* sh_seed = Json.field "seed" Json.int64 j in
  let* sh_attempts = Json.field "attempts" Json.int j in
  let* sh_not_before = Json.field "not_before" Json.float j in
  let* sh_state =
    let* st = Json.field "state" Json.str j in
    match st with
    | "pending" -> Ok Pending
    | "done" -> Ok Done
    | "quarantined" -> Ok Quarantined
    | "leased" ->
        (* The orchestrator SIGKILLs a leased shard's pid: kill(2) reads
           -1 as every process the user may signal and 0 as its own
           process group, and pid 1 is init. *)
        let* pid = Json.field "pid" (int_at_least 2) j in
        let* expires = Json.field "expires" Json.float j in
        let* attempt = Json.field "attempt" Json.int j in
        Ok (Leased { pid; expires; attempt })
    | s -> Error (Printf.sprintf "unknown shard state %S" s)
  in
  Ok { sh_id; sh_seed; sh_state; sh_attempts; sh_not_before }

let decoder ~dir j =
  let* () = Json.check_schema ~version schema j in
  let* spec = Json.field "spec" spec_of_json j in
  let* fp = Json.field "fingerprint" Json.str j in
  let* () =
    if fp = fingerprint spec then Ok ()
    else Error "fingerprint does not match its own spec"
  in
  let* shards = Json.field "shards" (Json.list shard_of_json) j in
  Ok { dir; spec; shards = Array.of_list shards }

let of_json ~dir = Json.decode ~codec:"ledger" (decoder ~dir)

(* --- persistence ------------------------------------------------------ *)

let fp_ledger_write = Faultpoint.point "fleet.ledger_write"

(* [fleet.ledger_write] models a transiently failing ledger write; it
   fires on every attempt of the atomic write's own retry loop. *)
let save t =
  Revizor_obs.Atomic_file.write ~fault:fp_ledger_write (ledger_path t.dir)
    (Json.to_string_pretty (to_json t) ^ "\n")

let load ~dir = Json.load ~codec:"ledger" (decoder ~dir) (ledger_path dir)

let exists ~dir = Sys.file_exists (ledger_path dir)
