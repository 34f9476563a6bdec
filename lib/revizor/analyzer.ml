open Revizor_uarch
module Metrics = Revizor_obs.Metrics

(* Distribution telemetry: how many observations a hardware trace
   carries (htrace density) and how the inputs partition into contract
   classes (class sizes, singletons included). Both are deterministic
   per seed, so they participate in the snapshot-determinism tests. *)
let h_class_size = Metrics.histogram "analyzer.class_size"
let m_partitions = Metrics.counter "analyzer.partitions"
let m_classes = Metrics.counter "analyzer.classes"
let h_htrace_density = Metrics.histogram "analyzer.htrace_density"

(* One histogram update per run of equal consecutive traces: on a
   compliant target most inputs share one trace. *)
let record_htraces htraces =
  let n = Array.length htraces in
  let rec from i =
    if i < n then begin
      let h = htraces.(i) in
      let rec past j = if j < n && Htrace.equal htraces.(j) h then past (j + 1) else j in
      let j = past (i + 1) in
      Metrics.observe_n h_htrace_density (Htrace.cardinal h) (j - i);
      from j
    end
  in
  from 0

type input_class = { ctrace : Ctrace.t; members : int list }

type candidate = {
  cls : input_class;
  index_a : int;
  index_b : int;
  htrace_a : Htrace.t;
  htrace_b : Htrace.t;
}

(* Mutable accumulator: members are consed in reverse and the class is
   never rebuilt — one comparison with the previous input's trace, at
   most one lookup, and one cons per input. *)
type acc = { a_ctrace : Ctrace.t; mutable rev_members : int list }

module Classes = Hashtbl.Make (struct
  type t = Ctrace.t

  let equal = Ctrace.equal
  let hash = Ctrace.hash
end)

let input_classes ctraces =
  let tbl = Classes.create 16 in
  let order = ref [] in
  let class_of ct =
    match Classes.find tbl ct with
    | a -> a
    | exception Not_found ->
        let a = { a_ctrace = ct; rev_members = [] } in
        Classes.add tbl ct a;
        order := a :: !order;
        a
  in
  (* The previous input's class is tried first: consecutive inputs
     mostly share one, and on a compliant target every input does. *)
  let rec from idx prev =
    if idx < Array.length ctraces then begin
      let ct = ctraces.(idx) in
      let a = if Ctrace.equal prev.a_ctrace ct then prev else class_of ct in
      a.rev_members <- idx :: a.rev_members;
      from (idx + 1) a
    end
  in
  if Array.length ctraces > 0 then from 0 (class_of ctraces.(0));
  Metrics.incr m_partitions;
  List.filter_map
    (fun a ->
      Metrics.incr m_classes;
      Metrics.observe h_class_size (List.length a.rev_members);
      match a.rev_members with
      | [] | [ _ ] -> None
      | ms -> Some { ctrace = a.a_ctrace; members = List.rev ms })
    (List.rev !order)

let effective_inputs classes =
  List.fold_left (fun acc c -> acc + List.length c.members) 0 classes

(* Linear-time screen for the all-pairs scan below. Pairwise
   comparability of a finite family of bitsets is equivalent to the
   family forming a subset chain: sort by cardinality and check adjacent
   inclusions (an adjacent non-inclusion with |a| <= |b| is itself an
   incomparable pair, and a full chain makes every pair comparable by
   transitivity). On a compliant target every class passes, so the
   common case costs O(k log k) instead of the O(k^2) pair scan — with
   low-entropy inputs one class can hold most of the input set. Most
   often every member's trace is the same, a chain that one pass over
   the class confirms before any sort. *)
let class_is_chain cls htraces equivalence =
  match cls.members with
  | [] | [ _ ] -> true
  | m0 :: _ as ms -> (
      let h0 = htraces.(m0) in
      List.for_all (fun i -> Htrace.equal htraces.(i) h0) ms
      ||
      match equivalence with
      | `Equal -> false
      | `Subset ->
          (* Built over a static value and cleared after use: a class of
             more than 256 members puts the array in the major heap,
             where [Array.of_list] would force a minor collection and the
             dead array's young traces would be promoted at the next one
             (DESIGN.md §6). *)
          let arr = Array.make (List.length ms) Htrace.empty in
          List.iteri (fun k i -> arr.(k) <- htraces.(i)) ms;
          Array.sort
            (fun a b -> Int.compare (Htrace.cardinal a) (Htrace.cardinal b))
            arr;
          let ok = ref true in
          for k = 0 to Array.length arr - 2 do
            if not (Htrace.subset arr.(k) arr.(k + 1)) then ok := false
          done;
          Array.fill arr 0 (Array.length arr) Htrace.empty;
          !ok)

let check_class ?(equivalence = `Subset) ?(excluding = []) cls htraces =
  let equivalent a b =
    match equivalence with
    | `Subset -> Htrace.comparable a b
    | `Equal -> Htrace.equal a b
  in
  let excluded =
    (* the common case is no exclusions; skip the per-pair tuple then *)
    match excluding with
    | [] -> fun _ _ -> false
    | ex -> fun a b -> List.mem (a, b) ex || List.mem (b, a) ex
  in
  (* The chain screen only ever skips scans that would return [None]; an
     exclusion list means some pair must be ignored, so the screen (which
     knows nothing of exclusions) stays off and the scan preserves the
     historical pair-selection order exactly. *)
  if excluding = [] && class_is_chain cls htraces equivalence then None
  else
    let rec pairs = function
      | [] -> None
      | a :: rest -> (
          match
            List.find_opt
              (fun b ->
                (not (excluded a b)) && not (equivalent htraces.(a) htraces.(b)))
              rest
          with
          | Some b -> Some (a, b)
          | None -> pairs rest)
    in
    pairs cls.members

let find_violation ?equivalence ?excluding classes htraces =
  List.find_map
    (fun cls ->
      match check_class ?equivalence ?excluding cls htraces with
      | Some (a, b) ->
          Some
            {
              cls;
              index_a = a;
              index_b = b;
              htrace_a = htraces.(a);
              htrace_b = htraces.(b);
            }
      | None -> None)
    classes
