open Revizor_isa
open Revizor_uarch
module Json = Revizor_obs.Json
module Metrics = Revizor_obs.Metrics
module Telemetry = Revizor_obs.Telemetry

(* The microarchitectural coverage atlas: the second coverage dimension
   next to {!Coverage}'s instruction patterns. Where pattern coverage is
   a black-box proxy ("did we give the CPU opportunities to speculate"),
   the atlas reads the simulator's own speculation-event record — which
   the executor already collects during normal measurement — and buckets
   it into a bounded feature space. Collection is pure bookkeeping over
   data the measurement produced anyway: no extra simulation runs, and
   nothing feeds back into generation, so fuzzing outcomes do not depend
   on the atlas. *)

let schema = "revizor.ucoverage.v1"
let version = 1

let enabled () = true

(* --- feature space --------------------------------------------------- *)

type origin =
  | O_cond_branch
  | O_ret
  | O_ind_jump
  | O_call
  | O_store
  | O_load
  | O_other

let all_origins =
  [ O_cond_branch; O_ret; O_ind_jump; O_call; O_store; O_load; O_other ]

let origin_to_string = function
  | O_cond_branch -> "cond-branch"
  | O_ret -> "ret"
  | O_ind_jump -> "ind-jump"
  | O_call -> "call"
  | O_store -> "store"
  | O_load -> "load"
  | O_other -> "other"

let origin_of_string s =
  List.find_opt (fun o -> origin_to_string o = s) all_origins

type feature =
  | Kind_origin of Cpu.speculation_kind * origin
  | Window of Cpu.speculation_kind * int
  | Footprint of Cpu.speculation_kind * int
  | Transition of Cpu.speculation_kind * Cpu.speculation_kind
  | Depth of int

let feature_to_string = function
  | Kind_origin (k, o) ->
      Printf.sprintf "kind-origin:%s:%s" (Cpu.kind_to_string k)
        (origin_to_string o)
  | Window (k, b) -> Printf.sprintf "window:%s:%d" (Cpu.kind_to_string k) b
  | Footprint (k, b) ->
      Printf.sprintf "footprint:%s:%d" (Cpu.kind_to_string k) b
  | Transition (a, b) ->
      Printf.sprintf "transition:%s>%s" (Cpu.kind_to_string a)
        (Cpu.kind_to_string b)
  | Depth b -> Printf.sprintf "depth:%d" b

let feature_of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
      let cls = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let split_last_colon r =
        match String.rindex_opt r ':' with
        | None -> None
        | Some j ->
            Some
              ( String.sub r 0 j,
                String.sub r (j + 1) (String.length r - j - 1) )
      in
      match cls with
      | "kind-origin" -> (
          match split_last_colon rest with
          | Some (ks, os) -> (
              match (Cpu.kind_of_string ks, origin_of_string os) with
              | Some k, Some o -> Some (Kind_origin (k, o))
              | _ -> None)
          | None -> None)
      | "window" | "footprint" -> (
          match split_last_colon rest with
          | Some (ks, bs) -> (
              match (Cpu.kind_of_string ks, int_of_string_opt bs) with
              | Some k, Some b ->
                  Some (if cls = "window" then Window (k, b) else Footprint (k, b))
              | _ -> None)
          | None -> None)
      | "transition" -> (
          match String.index_opt rest '>' with
          | None -> None
          | Some j -> (
              let a = String.sub rest 0 j in
              let b = String.sub rest (j + 1) (String.length rest - j - 1) in
              match (Cpu.kind_of_string a, Cpu.kind_of_string b) with
              | Some ka, Some kb -> Some (Transition (ka, kb))
              | _ -> None))
      | "depth" -> Option.map (fun b -> Depth b) (int_of_string_opt rest)
      | _ -> None)

let feature_kind = function
  | Kind_origin (k, _) | Window (k, _) | Footprint (k, _) | Transition (k, _)
    ->
      Some k
  | Depth _ -> None

(* --- harvesting ------------------------------------------------------- *)

(* Classify the instruction that triggered a speculation episode. The
   origin PC indexes the compiled program's descriptors; anything outside
   the listing (should not happen) degrades to [O_other]. *)
let origin_of descs pc =
  if pc < 0 || pc >= Array.length descs then O_other
  else
    let d = descs.(pc) in
    match d.Revizor_emu.Compiled.d_inst.Instruction.opcode with
    | Opcode.Jcc _ -> O_cond_branch
    | Opcode.Ret -> O_ret
    | Opcode.JmpInd -> O_ind_jump
    | Opcode.Call -> O_call
    | _ ->
        if d.Revizor_emu.Compiled.d_stores then O_store
        else if d.Revizor_emu.Compiled.d_loads then O_load
        else O_other

(* Features of one run's event record (in execution order): per episode
   the kind×origin pair, the log2-bucketed speculation-window length
   (transient loads that beat the squash) and transient cache-set
   footprint; per consecutive episode pair the squash-cause transition;
   and the run's speculative burst depth (episodes per run,
   log2-bucketed — the simulated CPU never nests transient episodes, so
   depth here counts the burst, not a nesting level). *)
let features_of_run descs (run : Cpu.event list) acc =
  match run with
  | [] -> acc
  | _ ->
      let rec go acc = function
        | [] -> acc
        | (e : Cpu.event) :: rest ->
            let k = e.Cpu.kind in
            let acc =
              Kind_origin (k, origin_of descs e.Cpu.origin_pc)
              :: Window (k, Metrics.bucket_of e.Cpu.transient_loads)
              :: Footprint (k, Metrics.bucket_of (List.length e.Cpu.touched_sets))
              :: acc
            in
            let acc =
              match rest with
              | (n : Cpu.event) :: _ -> Transition (k, n.Cpu.kind) :: acc
              | [] -> acc
            in
            go acc rest
      in
      go (Depth (Metrics.bucket_of (List.length run)) :: acc) run

(* A run physically equal to the measurement's previous run — a memo
   replay returns the recorded run's own list — has its features in the
   list already: it is skipped, and [sort_uniq] would drop its
   duplicates anyway. *)
let features_of_measurements ~descs (ms : Executor.measurement array) =
  let rec harvest prev acc = function
    | [] -> acc
    | run :: runs when run == prev -> harvest prev acc runs
    | run :: runs -> harvest run (features_of_run descs run acc) runs
  in
  let acc =
    Array.fold_left
      (fun acc (m : Executor.measurement) -> harvest [] acc m.Executor.runs)
      [] ms
  in
  List.sort_uniq Stdlib.compare acc

(* --- accumulator ------------------------------------------------------ *)

module FMap = Map.Make (struct
  type t = feature

  let compare = Stdlib.compare
end)

type t = {
  mutable first_hit : int FMap.t;  (** feature -> first-covering test case *)
  mutable frontier : (int * int) list;
      (** (tc, cumulative distinct) at every test case that covered
          something new; most recent first *)
  mutable last_round_distinct : int;
  mutable barren_rounds : int;
  mutable saturation_emitted : bool;
}

let create () =
  {
    first_hit = FMap.empty;
    frontier = [];
    last_round_distinct = 0;
    barren_rounds = 0;
    saturation_emitted = false;
  }

let copy t =
  {
    first_hit = t.first_hit;
    frontier = t.frontier;
    last_round_distinct = t.last_round_distinct;
    barren_rounds = t.barren_rounds;
    saturation_emitted = t.saturation_emitted;
  }

let assign dst ~from =
  dst.first_hit <- from.first_hit;
  dst.frontier <- from.frontier;
  dst.last_round_distinct <- from.last_round_distinct;
  dst.barren_rounds <- from.barren_rounds;
  dst.saturation_emitted <- from.saturation_emitted

let distinct t = FMap.cardinal t.first_hit
let first_hits t = FMap.bindings t.first_hit
let frontier t = List.rev t.frontier

let equal a b =
  FMap.equal ( = ) a.first_hit b.first_hit
  && a.frontier = b.frontier
  && a.last_round_distinct = b.last_round_distinct
  && a.barren_rounds = b.barren_rounds

let rate_per_1k t ~test_cases =
  if test_cases <= 0 then 0.
  else 1000. *. float_of_int (distinct t) /. float_of_int test_cases

let kind_features t k =
  FMap.fold
    (fun f tc acc -> if feature_kind f = Some k then (f, tc) :: acc else acc)
    t.first_hit []
  |> List.rev

(* Per-kind first hit: the earliest test case whose measurement produced
   any feature of that mechanism. *)
let kind_first_hit t k =
  FMap.fold
    (fun f tc acc ->
      if feature_kind f = Some k then
        match acc with Some best when best <= tc -> acc | _ -> Some tc
      else acc)
    t.first_hit None

(* --- metrics / telemetry --------------------------------------------- *)

let g_features = Metrics.gauge "ucov.features"
let g_frontier_tc = Metrics.gauge "ucov.frontier_tc"
let m_frontier = Metrics.counter "ucov.frontier_events"
let m_saturations = Metrics.counter "ucov.saturations"

let kind_gauges =
  List.map
    (fun k -> (k, Metrics.gauge ("ucov.kind." ^ Cpu.kind_to_string k)))
    Cpu.all_kinds

let set_gauges t =
  Metrics.set_gauge g_features (float_of_int (distinct t));
  List.iter
    (fun (k, g) ->
      Metrics.set_gauge g (float_of_int (List.length (kind_features t k))))
    kind_gauges

let register t ~tc features =
  let fresh = List.filter (fun f -> not (FMap.mem f t.first_hit)) features in
  if fresh <> [] then begin
    List.iter (fun f -> t.first_hit <- FMap.add f tc t.first_hit) fresh;
    t.frontier <- (tc, distinct t) :: t.frontier;
    Metrics.add m_frontier (List.length fresh);
    Metrics.set_gauge g_frontier_tc (float_of_int tc);
    set_gauges t;
    if Telemetry.enabled () then
      List.iter
        (fun f ->
          Telemetry.event "coverage.frontier"
            [
              ("feature", Json.String (feature_to_string f));
              ("tc", Json.Int tc);
              ("features", Json.Int (distinct t));
            ])
        fresh
  end

(* Round-boundary saturation analytics: count consecutive rounds that
   covered nothing new; after [window] barren rounds emit one
   [coverage.saturation] event, re-armed by the next frontier advance. *)
let saturation_window = 3

let note_round t ~round =
  let d = distinct t in
  if d = t.last_round_distinct then t.barren_rounds <- t.barren_rounds + 1
  else begin
    t.barren_rounds <- 0;
    t.saturation_emitted <- false
  end;
  t.last_round_distinct <- d;
  if t.barren_rounds >= saturation_window && not t.saturation_emitted then begin
    t.saturation_emitted <- true;
    Metrics.incr m_saturations;
    if Telemetry.enabled () then
      Telemetry.event "coverage.saturation"
        [
          ("round", Json.Int round);
          ("barren_rounds", Json.Int t.barren_rounds);
          ("features", Json.Int d);
        ]
  end

(* --- JSON codec ------------------------------------------------------- *)

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("version", Json.Int version);
      ( "features",
        Json.Obj
          (List.map
             (fun (f, tc) -> (feature_to_string f, Json.Int tc))
             (first_hits t)) );
      ( "frontier",
        Json.List
          (List.map
             (fun (tc, n) -> Json.List [ Json.Int tc; Json.Int n ])
             (frontier t)) );
      ("last_round_distinct", Json.Int t.last_round_distinct);
      ("barren_rounds", Json.Int t.barren_rounds);
      ("saturation_emitted", Json.Bool t.saturation_emitted);
    ]

let ( let* ) = Result.bind

(* Test-case indices and counters are never negative, and the saturation
   curve gains at least one feature at a later test case at every point:
   a document that says otherwise is corrupt, and the decoder refuses it
   rather than report an atlas no campaign reaches. *)
let non_negative j =
  let* n = Json.int j in
  if n >= 0 then Ok n else Error (Printf.sprintf "%d is negative" n)

let rec check_monotone = function
  | (t1, n1) :: ((t2, n2) :: _ as rest) ->
      if t1 < t2 && n1 < n2 then check_monotone rest
      else
        Error
          (Printf.sprintf "frontier point (%d, %d) does not follow (%d, %d)"
             t2 n2 t1 n1)
  | _ -> Ok ()

let decoder j =
  let* () = Json.check_schema ~version schema j in
  let* hits =
    Json.field "features"
      (Json.assoc (fun name v ->
           match feature_of_string name with
           | None -> Error "unknown feature"
           | Some f ->
               let* tc = non_negative v in
               Ok (f, tc)))
      j
  in
  let* frontier =
    Json.field "frontier"
      (Json.list (function
        | Json.List [ a; b ] ->
            let* tc = non_negative a in
            let* n = non_negative b in
            Ok (tc, n)
        | _ -> Error "expected a [tc, features] pair"))
      j
  in
  let* () = Result.map_error (( ^ ) "frontier: ") (check_monotone frontier) in
  let* last_round_distinct = Json.field "last_round_distinct" non_negative j in
  let* barren_rounds = Json.field "barren_rounds" non_negative j in
  let* saturation_emitted = Json.field "saturation_emitted" Json.bool j in
  Ok
    {
      first_hit = FMap.of_list hits;
      frontier = List.rev frontier;
      last_round_distinct;
      barren_rounds;
      saturation_emitted;
    }

let of_json = Json.decode ~codec:"ucoverage" decoder

(* Compact summary for the monitor's [coverage] query. *)
let summary_fields t ~test_cases =
  [
    ("features", Json.Int (distinct t));
    ("features_per_1k_tc", Json.Float (rate_per_1k t ~test_cases));
    ( "kinds",
      Json.Obj
        (List.filter_map
           (fun k ->
             match kind_first_hit t k with
             | None -> None
             | Some tc ->
                 Some
                   ( Cpu.kind_to_string k,
                     Json.Obj
                       [
                         ("features", Json.Int (List.length (kind_features t k)));
                         ("first_hit_tc", Json.Int tc);
                       ] ))
           Cpu.all_kinds) );
    ("barren_rounds", Json.Int t.barren_rounds);
    ("saturated", Json.Bool t.saturation_emitted);
  ]

(* --- merge ------------------------------------------------------------ *)

(* Fleet-side atlas union. First hits take the minimum test-case index
   per feature, which makes the operation commutative, associative and
   idempotent — the orchestrator can fold shard atlases in completion
   order (or re-commit one after a crash) and always land on the same
   merged atlas as a sequential fold over the same shards. The
   saturation-curve state (frontier, barren-round counters) is a
   property of one campaign's timeline and has no cross-shard meaning,
   so the merged atlas carries none: its frontier is empty and its
   round counters are zeroed, with [last_round_distinct] pinned to the
   merged feature count so the result is a pure function of the inputs'
   first-hit maps. *)
let merge a b =
  let first_hit =
    FMap.union (fun _ ta tb -> Some (min ta tb)) a.first_hit b.first_hit
  in
  {
    first_hit;
    frontier = [];
    last_round_distinct = FMap.cardinal first_hit;
    barren_rounds = 0;
    saturation_emitted = false;
  }

(* --- diff ------------------------------------------------------------- *)

(* Features one atlas covers that the other does not — the differential
   CPU-matrix view: which speculation behaviours one config exercises
   that another (e.g. a patched variant) never shows. *)
let diff a b =
  let only l r =
    FMap.fold
      (fun f _ acc -> if FMap.mem f r.first_hit then acc else f :: acc)
      l.first_hit []
    |> List.rev
  in
  (only a b, only b a)

(* --- rendering -------------------------------------------------------- *)

let bucket_range b =
  if b <= 0 then "0"
  else if b = 1 then "1"
  else Printf.sprintf "%d-%d" (Metrics.bucket_lower b) ((1 lsl b) - 1)

let render_kind_table t =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "  %-22s %9s %13s\n" "mechanism" "features" "first hit tc";
  List.iter
    (fun k ->
      match kind_first_hit t k with
      | None -> add "  %-22s %9s %13s\n" (Cpu.kind_to_string k) "-" "-"
      | Some tc ->
          add "  %-22s %9d %13d\n" (Cpu.kind_to_string k)
            (List.length (kind_features t k))
            tc)
    Cpu.all_kinds;
  Buffer.contents buf

let render_report ?test_cases t =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let section name = add "== %s ==\n" name in
  add "Microarchitectural coverage atlas: %d distinct features\n" (distinct t);
  (match test_cases with
  | Some n when n > 0 ->
      add "  %.2f features per 1k test cases (%d test cases)\n"
        (rate_per_1k t ~test_cases:n) n
  | _ -> ());
  if t.barren_rounds > 0 then
    add "  %d consecutive round(s) without new coverage%s\n" t.barren_rounds
      (if t.saturation_emitted then " (saturated)" else "");
  add "\n";
  section "Per-mechanism coverage";
  Buffer.add_string buf (render_kind_table t);
  add "\n";
  let by_class pred name render_row =
    let rows =
      List.filter (fun (f, _) -> pred f) (first_hits t)
    in
    if rows <> [] then begin
      section name;
      List.iter (fun (f, tc) -> render_row f tc) rows;
      add "\n"
    end
  in
  by_class
    (function Kind_origin _ -> true | _ -> false)
    "Mechanism x origin pattern"
    (fun f tc ->
      match f with
      | Kind_origin (k, o) ->
          add "  %-22s at %-12s first tc %d\n" (Cpu.kind_to_string k)
            (origin_to_string o) tc
      | _ -> ());
  by_class
    (function Window _ -> true | _ -> false)
    "Speculation-window buckets (transient loads)"
    (fun f tc ->
      match f with
      | Window (k, b) ->
          add "  %-22s window %-8s first tc %d\n" (Cpu.kind_to_string k)
            (bucket_range b) tc
      | _ -> ());
  by_class
    (function Footprint _ -> true | _ -> false)
    "Transient cache-set footprint buckets"
    (fun f tc ->
      match f with
      | Footprint (k, b) ->
          add "  %-22s sets %-10s first tc %d\n" (Cpu.kind_to_string k)
            (bucket_range b) tc
      | _ -> ());
  by_class
    (function Transition _ -> true | _ -> false)
    "Squash-cause transitions"
    (fun f tc ->
      match f with
      | Transition (a, b) ->
          add "  %-22s -> %-22s first tc %d\n" (Cpu.kind_to_string a)
            (Cpu.kind_to_string b) tc
      | _ -> ());
  by_class
    (function Depth _ -> true | _ -> false)
    "Speculative burst depth buckets (episodes per run)"
    (fun f tc ->
      match f with
      | Depth b -> add "  %-10s episodes  first tc %d\n" (bucket_range b) tc
      | _ -> ());
  section "Saturation curve";
  (match frontier t with
  | [] -> add "  (no coverage recorded)\n"
  | pts ->
      add "  %-12s %s\n" "test case" "cumulative features";
      List.iter (fun (tc, n) -> add "  %-12d %d\n" tc n) pts);
  Buffer.contents buf
