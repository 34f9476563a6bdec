open Revizor_isa
open Revizor_emu

type pattern =
  | Store_after_store
  | Load_after_store
  | Store_after_load
  | Load_after_load
  | Reg_dependency
  | Flags_dependency
  | Cond_dependency
  | Uncond_dependency

let all_patterns =
  [
    Store_after_store;
    Load_after_store;
    Store_after_load;
    Load_after_load;
    Reg_dependency;
    Flags_dependency;
    Cond_dependency;
    Uncond_dependency;
  ]

let pattern_to_string = function
  | Store_after_store -> "store-after-store"
  | Load_after_store -> "load-after-store"
  | Store_after_load -> "store-after-load"
  | Load_after_load -> "load-after-load"
  | Reg_dependency -> "reg-dependency"
  | Flags_dependency -> "flags-dependency"
  | Cond_dependency -> "cond-dependency"
  | Uncond_dependency -> "uncond-dependency"

let pattern_of_string s =
  List.find_opt (fun p -> pattern_to_string p = s) all_patterns

let line_of addr = Int64.div addr (Int64.of_int Layout.cache_line)

let mem_patterns (a : Model.step_record) (b : Model.step_record) =
  let kinds accesses =
    List.map
      (fun (x : Semantics.access) -> (x.Semantics.kind, line_of x.Semantics.addr))
      accesses
  in
  let first = kinds a.Model.s_accesses and second = kinds b.Model.s_accesses in
  List.concat_map
    (fun (k1, l1) ->
      List.filter_map
        (fun (k2, l2) ->
          if l1 <> l2 then None
          else
            match (k1, k2) with
            | `Store, `Store -> Some Store_after_store
            | `Store, `Load -> Some Load_after_store
            | `Load, `Store -> Some Store_after_load
            | `Load, `Load -> Some Load_after_load)
        second)
    first

let dep_patterns (a : Model.step_record) (b : Model.step_record) =
  let written = Instruction.regs_written a.Model.s_inst in
  let read = Instruction.regs_read b.Model.s_inst in
  let reg_dep = List.exists (fun r -> List.mem r read) written in
  let flags_dep =
    Opcode.writes_flags a.Model.s_inst.Instruction.opcode
    && Opcode.reads_flags b.Model.s_inst.Instruction.opcode
  in
  (if reg_dep then [ Reg_dependency ] else [])
  @ if flags_dep then [ Flags_dependency ] else []

let control_patterns (a : Model.step_record) _ =
  match a.Model.s_inst.Instruction.opcode with
  | Opcode.Jcc _ -> [ Cond_dependency ]
  | Opcode.Jmp | Opcode.JmpInd | Opcode.Call | Opcode.Ret -> [ Uncond_dependency ]
  | _ -> []

let patterns_of_stream stream =
  let rec pairs acc = function
    | a :: (b :: _ as rest) ->
        pairs (control_patterns a b @ dep_patterns a b @ mem_patterns a b @ acc) rest
    | [ _ ] | [] -> acc
  in
  List.sort_uniq Stdlib.compare (pairs [] stream)

module PSet = Set.Make (struct
  type t = pattern list

  let compare = Stdlib.compare
end)

type t = {
  mutable singles : pattern list;
  mutable combos : PSet.t;  (** covered pattern sets (one per test case) *)
}

let create () = { singles = []; combos = PSet.empty }
let copy t = { singles = t.singles; combos = t.combos }

(* Checkpoint serialization: the accumulator is fully described by its
   covered singles and combination sets, both stored as pattern-name
   lists so the format survives constructor reordering. *)
module Json = Revizor_obs.Json

let to_json t =
  let names ps = Json.List (List.map (fun p -> Json.String (pattern_to_string p)) ps) in
  Json.Obj
    [
      ("singles", names t.singles);
      ("combos", Json.List (List.map names (PSet.elements t.combos)));
    ]

let of_json j =
  let pattern s =
    Result.bind (Json.str s) (fun name ->
        Option.to_result (pattern_of_string name)
          ~none:(Printf.sprintf "unknown pattern %S" name))
  in
  let ( let* ) = Result.bind in
  let* singles = Json.field "singles" (Json.list pattern) j in
  let* combos = Json.field "combos" (Json.list (Json.list pattern)) j in
  Ok { singles; combos = PSet.of_list combos }

let g_singles = Revizor_obs.Metrics.gauge "coverage.singles"
let g_combos = Revizor_obs.Metrics.gauge "coverage.combinations"
let m_new_combos = Revizor_obs.Metrics.counter "coverage.new_combinations"

let register t ~patterns ~effective =
  if effective && patterns <> [] then begin
    let sorted = List.sort_uniq Stdlib.compare patterns in
    t.singles <- List.sort_uniq Stdlib.compare (sorted @ t.singles);
    let fresh = not (PSet.mem sorted t.combos) in
    t.combos <- PSet.add sorted t.combos;
    if fresh then begin
      Revizor_obs.Metrics.incr m_new_combos;
      Revizor_obs.Metrics.set_gauge g_singles
        (float_of_int (List.length t.singles));
      Revizor_obs.Metrics.set_gauge g_combos
        (float_of_int (PSet.cardinal t.combos));
      if Revizor_obs.Telemetry.enabled () then
        Revizor_obs.Telemetry.event "coverage.combo"
          [
            ( "patterns",
              Revizor_obs.Json.String
                (String.concat "+" (List.map pattern_to_string sorted)) );
            ("combinations", Revizor_obs.Json.Int (PSet.cardinal t.combos));
            ("singles", Revizor_obs.Json.Int (List.length t.singles));
          ]
    end
  end

let covered t p = List.mem p t.singles

let combinations_covered t ~k =
  (* Count distinct k-subsets contained in any covered combination. *)
  let rec subsets k l =
    if k = 0 then [ [] ]
    else
      match l with
      | [] -> []
      | x :: rest ->
          List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest
  in
  let all =
    PSet.fold
      (fun combo acc -> PSet.union acc (PSet.of_list (subsets k combo)))
      t.combos PSet.empty
  in
  PSet.cardinal all

let total_combinations t = PSet.cardinal t.combos

let should_grow t ~previous_combinations ~round_length =
  let fresh = PSet.cardinal t.combos - previous_combinations in
  fresh * 5 < round_length
