(* The central corpus merge: shard results fold into one
   [revizor.merged.v1] document — violations, summed statistics and the
   union of the per-shard coverage atlases.

   Two properties carry the fleet's losslessness guarantee:

   - {e Idempotence}: the document journals committed shard ids, and
     [commit] is a no-op for a journaled shard. A crash between writing
     [merged.json] and marking the ledger entry [Done] therefore costs
     one redundant shard re-run, never a duplicated violation or
     double-counted statistic.

   - {e Order independence}: everything in the document is keyed and
     sorted by shard id, statistics sum is commutative, and
     [Ucoverage.merge] is a commutative/associative/idempotent union —
     so any completion order over the same shards produces the same
     bytes, which is what lets chaos runs be diffed byte-for-byte
     against a sequential reference. *)

open Revizor
module Json = Revizor_obs.Json
module Faultpoint = Revizor_obs.Faultpoint

let schema = "revizor.merged.v1"

(* [fleet.merge] fires per merged-doc write attempt. *)
let fp_merge = Faultpoint.point "fleet.merge"

type violation = {
  mv_shard : int;
  mv_seed : int64;
  mv_entry : Worker.violation_entry;
}

type t = {
  m_fingerprint : string;  (* Ledger.fingerprint of the campaign spec *)
  mutable m_shards : int list;  (* committed shard ids, ascending *)
  mutable m_violations : violation list;  (* ascending by shard id *)
  m_stats : Fuzzer.stats;  (* field-wise sum; elapsed_s stays 0 *)
  mutable m_atlas : Ucoverage.t;
}

let create ~(spec : Ledger.spec) =
  {
    m_fingerprint = Ledger.fingerprint spec;
    m_shards = [];
    m_violations = [];
    m_stats = Fuzzer.fresh_stats ();
    m_atlas = Ucoverage.create ();
  }

let committed t shard_id = List.mem shard_id t.m_shards

let add_stats (dst : Fuzzer.stats) (src : Fuzzer.stats) =
  dst.test_cases <- dst.test_cases + src.test_cases;
  dst.inputs_tested <- dst.inputs_tested + src.inputs_tested;
  dst.effective_inputs <- dst.effective_inputs + src.effective_inputs;
  dst.ineffective_test_cases <-
    dst.ineffective_test_cases + src.ineffective_test_cases;
  dst.faulted_test_cases <- dst.faulted_test_cases + src.faulted_test_cases;
  dst.skipped_pathological <-
    dst.skipped_pathological + src.skipped_pathological;
  dst.candidates <- dst.candidates + src.candidates;
  dst.dismissed_by_swap <- dst.dismissed_by_swap + src.dismissed_by_swap;
  dst.dismissed_by_nesting <-
    dst.dismissed_by_nesting + src.dismissed_by_nesting;
  dst.rounds <- dst.rounds + src.rounds;
  dst.growths <- dst.growths + src.growths

let commit t (r : Worker.result) =
  if committed t r.Worker.r_shard then false
  else begin
    t.m_shards <- List.sort compare (r.Worker.r_shard :: t.m_shards);
    (match r.Worker.r_violation with
    | None -> ()
    | Some entry ->
        t.m_violations <-
          List.sort
            (fun a b -> compare a.mv_shard b.mv_shard)
            ({ mv_shard = r.Worker.r_shard; mv_seed = r.Worker.r_seed; mv_entry = entry }
            :: t.m_violations));
    add_stats t.m_stats r.Worker.r_stats;
    t.m_atlas <- Ucoverage.merge t.m_atlas r.Worker.r_atlas;
    true
  end

let violations t = t.m_violations
let shards t = t.m_shards
let stats t = t.m_stats
let atlas t = t.m_atlas

(* --- codec ------------------------------------------------------------- *)

let violation_to_json v =
  match Worker.violation_to_json v.mv_entry with
  | Json.Obj fields ->
      Json.Obj
        (("shard", Json.Int v.mv_shard)
        :: ("seed", Json.hex64 v.mv_seed)
        :: fields)
  | j -> j

let ( let* ) = Result.bind

let violation_of_json j =
  let* mv_shard = Json.field "shard" Json.int j in
  let* mv_seed = Json.field "seed" Json.int64 j in
  let* mv_entry = Worker.violation_of_json j in
  Ok { mv_shard; mv_seed; mv_entry }

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("fingerprint", Json.String t.m_fingerprint);
      ("shards", Json.List (List.map (fun i -> Json.Int i) t.m_shards));
      ("violations", Json.List (List.map violation_to_json t.m_violations));
      ("stats", Fuzzer.stats_to_json t.m_stats);
      ("ucoverage", Ucoverage.to_json t.m_atlas);
    ]

let decoder j =
  let* () = Json.check_schema schema j in
  let* m_fingerprint = Json.field "fingerprint" Json.str j in
  let* m_shards = Json.field "shards" (Json.list Json.int) j in
  let* m_violations = Json.field "violations" (Json.list violation_of_json) j in
  let* m_stats = Json.field "stats" Fuzzer.stats_of_json j in
  let* m_atlas = Json.field "ucoverage" Ucoverage.of_json j in
  Ok { m_fingerprint; m_shards; m_violations; m_stats; m_atlas }

let of_json = Json.decode ~codec:"merged doc" decoder
let render t = Json.to_string_pretty (to_json t) ^ "\n"

(* A persistent write failure raises: the orchestrator requeues the
   shard, and the journal makes its eventual re-commit a no-op, so
   nothing is counted twice. *)
let save ~dir ~spec:(_ : Ledger.spec) t =
  Revizor_obs.Atomic_file.write ~fault:fp_merge (Ledger.merged_path dir) (render t)

let load ~dir ~(spec : Ledger.spec) =
  let path = Ledger.merged_path dir in
  if not (Sys.file_exists path) then Ok (create ~spec)
  else
    let* t = Json.load ~codec:"merged doc" decoder path in
    if t.m_fingerprint <> Ledger.fingerprint spec then
      Error
        (Printf.sprintf
           "merged doc: fingerprint mismatch (%s on disk, %s expected): \
            refusing to merge across campaign specs"
           t.m_fingerprint (Ledger.fingerprint spec))
    else Ok t
