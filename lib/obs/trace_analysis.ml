(* Pure analyses over parsed telemetry lines. Nothing here touches the
   live sink or the registry: the toolkit must run on traces recorded by
   other processes (possibly killed mid-write). *)

type span = {
  sp_name : string;
  sp_start : int;
  sp_dur : int;
  sp_dom : int;
  sp_tc : int option;
}

let span_end s = s.sp_start + s.sp_dur

let spans_of_lines lines =
  List.filter_map
    (fun (l : Telemetry.line) ->
      if l.Telemetry.l_kind <> "span" then None
      else
        let field k = List.assoc_opt k l.Telemetry.l_fields in
        match
          ( Option.bind (field "start") Json.to_int,
            Option.bind (field "dur_ns") Json.to_int )
        with
        | Some start, Some dur ->
            Some
              {
                sp_name = l.Telemetry.l_name;
                sp_start = start;
                sp_dur = dur;
                sp_dom =
                  Option.value ~default:0
                    (Option.bind (field "dom") Json.to_int);
                sp_tc = Option.bind (field "tc") Json.to_int;
              }
        | _ -> None)
    lines

let load_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic)
  with
  | exception Sys_error e -> Error e
  | data -> (
      let raw = String.split_on_char '\n' data in
      let scan = Telemetry.scan_lines raw in
      match scan.Telemetry.sc_error with
      | Some (lineno, msg) ->
          Error (Printf.sprintf "%s:%d: %s" path lineno msg)
      | None ->
          (* Re-parse keeping only the good lines; the truncated tail (if
             any) was already classified by the scan and is dropped. *)
          let lines =
            List.filter_map
              (fun s ->
                if String.trim s = "" then None
                else Result.to_option (Telemetry.parse_line s))
              raw
          in
          Ok (lines, scan))

(* --- span trees ----------------------------------------------------- *)

type node = { n_span : span; n_children : node list }

let by_domain spans =
  let doms =
    List.sort_uniq compare (List.map (fun s -> s.sp_dom) spans)
  in
  List.map (fun d -> (d, List.filter (fun s -> s.sp_dom = d) spans)) doms

let contains outer inner =
  outer.sp_start <= inner.sp_start && span_end inner <= span_end outer

(* Sort by (start asc, end desc): an enclosing span sorts before
   everything it contains, so a single stack pass builds the forest. *)
let tree_order a b =
  match compare a.sp_start b.sp_start with
  | 0 -> compare (span_end b) (span_end a)
  | c -> c

let span_forest spans =
  let sorted = List.sort tree_order spans in
  (* Stack of open (span, children-so-far-reversed) frames. *)
  let roots = ref [] in
  let stack = ref [] in
  let close_into child =
    match !stack with
    | [] -> roots := child :: !roots
    | (p, kids) :: rest -> stack := (p, child :: kids) :: rest
  in
  let rec pop_until s =
    match !stack with
    | (p, kids) :: rest when not (contains p s) ->
        stack := rest;
        close_into { n_span = p; n_children = List.rev kids };
        pop_until s
    | _ -> ()
  in
  List.iter
    (fun s ->
      pop_until s;
      stack := (s, []) :: !stack)
    sorted;
  (* Close everything still open. *)
  let rec drain () =
    match !stack with
    | [] -> ()
    | (p, kids) :: rest ->
        stack := rest;
        close_into { n_span = p; n_children = List.rev kids };
        drain ()
  in
  drain ();
  List.rev !roots

let rec depth n =
  1 + List.fold_left (fun acc c -> max acc (depth c)) 0 n.n_children

(* --- nesting validation --------------------------------------------- *)

type nesting = {
  nst_spans : int;
  nst_max_depth : int;
  nst_orphans : (span * span) list;
}

let max_reported_orphans = 8

let check_nesting spans =
  let sorted = List.sort tree_order spans in
  (* Walk with an open-span stack; a span that starts inside the top of
     stack but ends outside it partially overlaps — an orphan pair. *)
  let orphans = ref [] in
  let stack = ref [] in
  let rec pop_until s =
    match !stack with
    | top :: rest when not (contains top s) ->
        if s.sp_start < span_end top then
          (* s starts inside [top] but is not contained: overlap. *)
          if List.length !orphans < max_reported_orphans then
            orphans := (top, s) :: !orphans;
        stack := rest;
        pop_until s
    | _ -> ()
  in
  List.iter
    (fun s ->
      pop_until s;
      stack := s :: !stack)
    sorted;
  let forest = span_forest spans in
  let max_depth = List.fold_left (fun acc n -> max acc (depth n)) 0 forest in
  {
    nst_spans = List.length spans;
    nst_max_depth = max_depth;
    nst_orphans = List.rev !orphans;
  }

(* --- gap analysis ---------------------------------------------------- *)

type gap = { g_start : int; g_dur : int; g_after : string; g_before : string }

let deepest_gap spans =
  match List.sort tree_order spans with
  | [] | [ _ ] -> None
  | first :: _ as sorted ->
      (* Sweep the sorted spans keeping the furthest end seen so far; a
         span starting past it opens a gap. *)
      let best = ref None in
      let frontier = ref (span_end first) in
      let frontier_name = ref first.sp_name in
      List.iter
        (fun s ->
          if s.sp_start > !frontier then begin
            let g =
              {
                g_start = !frontier;
                g_dur = s.sp_start - !frontier;
                g_after = !frontier_name;
                g_before = s.sp_name;
              }
            in
            match !best with
            | Some b when b.g_dur >= g.g_dur -> ()
            | _ -> best := Some g
          end;
          if span_end s >= !frontier then begin
            frontier := span_end s;
            frontier_name := s.sp_name
          end)
        sorted;
      !best

let check_domains spans =
  List.map
    (fun (dom, group) -> (dom, check_nesting group, deepest_gap group))
    (by_domain spans)

(* --- per-stage and per-domain summaries ------------------------------ *)

type stage_stat = {
  st_stage : string;
  st_calls : int;
  st_total_ns : int;
  st_max_ns : int;
}

let stage_stats spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let calls, total, mx =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl s.sp_name)
      in
      Hashtbl.replace tbl s.sp_name
        (calls + 1, total + s.sp_dur, max mx s.sp_dur))
    spans;
  Hashtbl.fold
    (fun name (calls, total, mx) acc ->
      { st_stage = name; st_calls = calls; st_total_ns = total; st_max_ns = mx }
      :: acc)
    tbl []
  |> List.sort (fun a b ->
         match compare b.st_total_ns a.st_total_ns with
         | 0 -> compare a.st_stage b.st_stage
         | c -> c)

type domain_stat = {
  d_dom : int;
  d_spans : int;
  d_busy_ns : int;
  d_stall_ns : int;
  d_top_stage : string;
}

(* Length of the union of the span intervals (they nest or are disjoint
   in a valid trace, but the sweep is correct for arbitrary input). *)
let busy_ns spans =
  let sorted = List.sort tree_order spans in
  let busy = ref 0 and frontier = ref min_int in
  List.iter
    (fun s ->
      let e = span_end s in
      if s.sp_start >= !frontier then begin
        busy := !busy + s.sp_dur;
        frontier := e
      end
      else if e > !frontier then begin
        busy := !busy + (e - !frontier);
        frontier := e
      end)
    sorted;
  !busy

let domain_stats spans =
  match spans with
  | [] -> []
  | _ ->
      let wall_start =
        List.fold_left (fun acc s -> min acc s.sp_start) max_int spans
      in
      let wall_end =
        List.fold_left (fun acc s -> max acc (span_end s)) min_int spans
      in
      let wall = wall_end - wall_start in
      List.map
        (fun (dom, group) ->
          let busy = busy_ns group in
          let top =
            match stage_stats group with
            | [] -> ""
            | top :: _ -> top.st_stage
          in
          {
            d_dom = dom;
            d_spans = List.length group;
            d_busy_ns = busy;
            d_stall_ns = max 0 (wall - busy);
            d_top_stage = top;
          })
        (by_domain spans)

(* --- Chrome trace-event export --------------------------------------- *)

let to_chrome lines =
  let us ns = Json.Float (float_of_int ns /. 1000.) in
  let events =
    List.filter_map
      (fun (l : Telemetry.line) ->
        let field k = List.assoc_opt k l.Telemetry.l_fields in
        let dom =
          Option.value ~default:0 (Option.bind (field "dom") Json.to_int)
        in
        let args =
          List.filter
            (fun (k, _) -> k <> "start" && k <> "dur_ns" && k <> "dom")
            l.Telemetry.l_fields
        in
        let base name ph ts =
          [
            ("name", Json.String name);
            ("ph", Json.String ph);
            ("ts", ts);
            ("pid", Json.Int 1);
            ("tid", Json.Int dom);
          ]
        in
        match l.Telemetry.l_kind with
        | "span" -> (
            match
              ( Option.bind (field "start") Json.to_int,
                Option.bind (field "dur_ns") Json.to_int )
            with
            | Some start, Some dur ->
                Some
                  (Json.Obj
                     (base l.Telemetry.l_name "X" (us start)
                     @ [ ("dur", us dur); ("args", Json.Obj args) ]))
            | _ -> None)
        | "event" ->
            Some
              (Json.Obj
                 (base l.Telemetry.l_name "i" (us l.Telemetry.l_ts)
                 @ [ ("s", Json.String "t"); ("args", Json.Obj args) ]))
        | _ -> None)
      lines
  in
  Json.Obj
    [
      ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.String "ms");
    ]

(* --- run-to-run diff -------------------------------------------------- *)

type diff_row = {
  dr_stage : string;
  dr_calls_a : int;
  dr_calls_b : int;
  dr_total_a_ns : int;
  dr_total_b_ns : int;
  dr_mean_a_ns : float;
  dr_mean_b_ns : float;
  dr_mean_ratio : float;
}

let diff spans_a spans_b =
  let stats_a = stage_stats spans_a and stats_b = stage_stats spans_b in
  let names =
    List.sort_uniq compare
      (List.map (fun s -> s.st_stage) stats_a
      @ List.map (fun s -> s.st_stage) stats_b)
  in
  let find stats name =
    List.find_opt (fun s -> s.st_stage = name) stats
  in
  List.map
    (fun name ->
      let calls st = match st with Some s -> s.st_calls | None -> 0 in
      let total st = match st with Some s -> s.st_total_ns | None -> 0 in
      let a = find stats_a name and b = find stats_b name in
      let mean c t = if c = 0 then Float.nan else float_of_int t /. float_of_int c in
      let mean_a = mean (calls a) (total a) in
      let mean_b = mean (calls b) (total b) in
      {
        dr_stage = name;
        dr_calls_a = calls a;
        dr_calls_b = calls b;
        dr_total_a_ns = total a;
        dr_total_b_ns = total b;
        dr_mean_a_ns = mean_a;
        dr_mean_b_ns = mean_b;
        dr_mean_ratio = mean_b /. mean_a;
      })
    names
  |> List.sort (fun x y ->
         compare
           (max y.dr_total_a_ns y.dr_total_b_ns)
           (max x.dr_total_a_ns x.dr_total_b_ns))
