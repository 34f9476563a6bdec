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
module Backoff = Revizor_obs.Backoff

let schema = "revizor.merged.v1"

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

let empty_stats () : Fuzzer.stats =
  {
    test_cases = 0;
    inputs_tested = 0;
    effective_inputs = 0;
    ineffective_test_cases = 0;
    faulted_test_cases = 0;
    skipped_pathological = 0;
    candidates = 0;
    dismissed_by_swap = 0;
    dismissed_by_nesting = 0;
    rounds = 0;
    growths = 0;
    elapsed_s = 0.;
  }

let create ~(spec : Ledger.spec) =
  {
    m_fingerprint = Ledger.fingerprint spec;
    m_shards = [];
    m_violations = [];
    m_stats = empty_stats ();
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
        :: ("seed", Json.String (Printf.sprintf "0x%Lx" v.mv_seed))
        :: fields)
  | j -> j

let ( let* ) = Result.bind

let violation_of_json j =
  let* mv_shard =
    match Option.bind (Json.member "shard" j) Json.to_int with
    | Some v -> Ok v
    | None -> Error "merged doc: violation missing shard"
  in
  let* mv_seed =
    match
      Option.bind (Option.bind (Json.member "seed" j) Json.to_str)
        Int64.of_string_opt
    with
    | Some v -> Ok v
    | None -> Error "merged doc: violation missing seed"
  in
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

let of_json j =
  let* () = Json.check_schema ~codec:"merged doc" schema j in
  let* m_fingerprint =
    match Option.bind (Json.member "fingerprint" j) Json.to_str with
    | Some f -> Ok f
    | None -> Error "merged doc: missing fingerprint"
  in
  let* m_shards =
    match Json.member "shards" j with
    | Some (Json.List ls) ->
        List.fold_left
          (fun acc l ->
            let* acc = acc in
            match Json.to_int l with
            | Some i -> Ok (i :: acc)
            | None -> Error "merged doc: non-int shard id")
          (Ok []) ls
        |> Result.map List.rev
    | _ -> Error "merged doc: missing shards"
  in
  let* m_violations =
    match Json.member "violations" j with
    | Some (Json.List ls) ->
        List.fold_left
          (fun acc l ->
            let* acc = acc in
            let* v = violation_of_json l in
            Ok (v :: acc))
          (Ok []) ls
        |> Result.map List.rev
    | _ -> Error "merged doc: missing violations"
  in
  let* stats =
    match Json.member "stats" j with
    | Some s -> Fuzzer.stats_of_json s
    | None -> Error "merged doc: missing stats"
  in
  let* m_atlas =
    match Json.member "ucoverage" j with
    | Some u -> Ucoverage.of_json u
    | None -> Error "merged doc: missing ucoverage"
  in
  Ok { m_fingerprint; m_shards; m_violations; m_stats = stats; m_atlas }

let render t = Json.to_string_pretty (to_json t) ^ "\n"

(* Atomic write of the merged document, retried under the fleet backoff
   policy; the [fleet.merge] fault point fires once per attempt. A
   persistent failure raises — the orchestrator requeues the shard, and
   the journal makes its eventual re-commit a no-op, so nothing is
   counted twice. *)
let save ~dir ~(spec : Ledger.spec) t =
  let path = Ledger.merged_path dir in
  let rec go n =
    match
      Faultpoint.fire fp_merge;
      Revizor_obs.Atomic_file.write path (render t)
    with
    | () -> ()
    | exception ((Faultpoint.Injected _ | Sys_error _) as e) ->
        if n >= 5 then raise e
        else begin
          Backoff.sleep_ms
            (Backoff.delay_ms spec.Ledger.sp_backoff
               ~key:(Int64.add spec.Ledger.sp_fleet_seed 0x4d3e9eL)
               ~attempt:n);
          go (n + 1)
        end
  in
  go 0

let load ~dir ~(spec : Ledger.spec) =
  let path = Ledger.merged_path dir in
  if not (Sys.file_exists path) then Ok (create ~spec)
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> Error (Printf.sprintf "merged doc: %s" e)
    | contents -> (
        match Json.parse contents with
        | Error e -> Error (Printf.sprintf "merged doc: parse error: %s" e)
        | Ok j -> (
            match of_json j with
            | Error _ as e -> e
            | Ok t ->
                if t.m_fingerprint <> Ledger.fingerprint spec then
                  Error
                    (Printf.sprintf
                       "merged doc: fingerprint mismatch (%s on disk, %s \
                        expected): refusing to merge across campaign specs"
                       t.m_fingerprint (Ledger.fingerprint spec))
                else Ok t))
