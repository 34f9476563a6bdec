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

let int_field (l : Telemetry.line) k =
  Option.bind (List.assoc_opt k l.Telemetry.l_fields) Json.to_int

let dom_of l = Option.value ~default:0 (int_field l "dom")

(* A span line's span, or [None] when it lacks [start] or [dur_ns]. *)
let span_of_line (l : Telemetry.line) =
  match (int_field l "start", int_field l "dur_ns") with
  | Some start, Some dur ->
      Some
        {
          sp_name = l.Telemetry.l_name;
          sp_start = start;
          sp_dur = dur;
          sp_dom = dom_of l;
          sp_tc = int_field l "tc";
        }
  | _ -> None

let spans_of_lines lines =
  List.filter_map
    (fun (l : Telemetry.line) ->
      if l.Telemetry.l_kind = "span" then span_of_line l else None)
    lines

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | data -> (
      match Telemetry.scan_lines (String.split_on_char '\n' data) with
      | _, { Telemetry.sc_error = Some (lineno, msg); _ } ->
          Error (Printf.sprintf "%s:%d: %s" path lineno msg)
      | loaded -> Ok loaded)

(* --- one walk per domain --------------------------------------------- *)

type node = { n_span : span; n_children : node list }
type gap = { g_start : int; g_dur : int; g_after : string; g_before : string }

let by_domain spans =
  let doms =
    List.sort_uniq compare (List.map (fun s -> s.sp_dom) spans)
  in
  List.map (fun d -> (d, List.filter (fun s -> s.sp_dom = d) spans)) doms

let contains outer inner =
  outer.sp_start <= inner.sp_start && span_end inner <= span_end outer

let tree_order a b =
  match compare a.sp_start b.sp_start with
  | 0 -> compare (span_end b) (span_end a)
  | c -> c

let max_reported_orphans = 8

type walk = {
  w_forest : node list;
  w_max_depth : int;
  w_orphans : int;
  w_orphan_pairs : (span * span) list;
  w_gap : gap option;
  w_busy_ns : int;
}

(* Sorted by (start asc, end desc), a span comes after every span that
   contains it, so one pass with a stack of open spans, each inside the
   one below it, builds the forest: a span's parent is the top of the
   stack once every open span that does not contain it is closed. An
   open span closed by a span that starts inside it is an orphaned pair
   (the new span ends after it). The furthest end seen so far, the
   frontier, gives the busy time (the union of the intervals) and the
   gaps; durations are never negative. *)
let walk spans =
  let sorted = List.sort tree_order spans in
  let roots = ref [] and stack = ref [] and height = ref 0 in
  let max_depth = ref 0 and orphans = ref 0 and pairs = ref [] in
  let frontier = ref (match sorted with s :: _ -> s.sp_start | [] -> 0) in
  let frontier_name = ref "" and busy = ref 0 and gap = ref None in
  (* Close the top open span into the one below it, or into the roots. *)
  let close () =
    match !stack with
    | [] -> ()
    | (p, kids) :: rest ->
        let node = { n_span = p; n_children = List.rev kids } in
        decr height;
        stack :=
          (match rest with
          | [] ->
              roots := node :: !roots;
              []
          | (q, siblings) :: below -> (q, node :: siblings) :: below)
  in
  List.iter
    (fun s ->
      let rec close_outside () =
        match !stack with
        | (top, _) :: _ when not (contains top s) ->
            if s.sp_start < span_end top then begin
              incr orphans;
              if !orphans <= max_reported_orphans then
                pairs := (top, s) :: !pairs
            end;
            close ();
            close_outside ()
        | _ -> ()
      in
      close_outside ();
      stack := (s, []) :: !stack;
      incr height;
      max_depth := max !max_depth !height;
      (* Only a strictly longer hole replaces the deepest so far. *)
      let hole = s.sp_start - !frontier in
      if hole > Option.fold ~none:0 ~some:(fun g -> g.g_dur) !gap then
        gap :=
          Some
            {
              g_start = !frontier;
              g_dur = hole;
              g_after = !frontier_name;
              g_before = s.sp_name;
            };
      busy := !busy + max 0 (span_end s - max s.sp_start !frontier);
      if span_end s >= !frontier then begin
        frontier := span_end s;
        frontier_name := s.sp_name
      end)
    sorted;
  while !height > 0 do
    close ()
  done;
  {
    w_forest = List.rev !roots;
    w_max_depth = !max_depth;
    w_orphans = !orphans;
    w_orphan_pairs = List.rev !pairs;
    w_gap = !gap;
    w_busy_ns = !busy;
  }

let span_forest spans = (walk spans).w_forest

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
  d_max_depth : int;
  d_orphans : int;
  d_orphan_pairs : (span * span) list;
  d_gap : gap option;
  d_busy_ns : int;
  d_stall_ns : int;
  d_top_stage : string;
}

let domain_stats spans =
  let wall_start =
    List.fold_left (fun acc s -> min acc s.sp_start) max_int spans
  in
  let wall_end =
    List.fold_left (fun acc s -> max acc (span_end s)) min_int spans
  in
  let wall = wall_end - wall_start in
  List.map
    (fun (dom, group) ->
      let w = walk group in
      {
        d_dom = dom;
        d_spans = List.length group;
        d_max_depth = w.w_max_depth;
        d_orphans = w.w_orphans;
        d_orphan_pairs = w.w_orphan_pairs;
        d_gap = w.w_gap;
        d_busy_ns = w.w_busy_ns;
        d_stall_ns = max 0 (wall - w.w_busy_ns);
        d_top_stage =
          (match stage_stats group with [] -> "" | top :: _ -> top.st_stage);
      })
    (by_domain spans)

(* --- Chrome trace-event export --------------------------------------- *)

let to_chrome lines =
  let us ns = Json.Float (float_of_int ns /. 1000.) in
  let events =
    List.filter_map
      (fun (l : Telemetry.line) ->
        let args =
          List.filter
            (fun (k, _) -> k <> "start" && k <> "dur_ns" && k <> "dom")
            l.Telemetry.l_fields
        in
        let base name ph ts dom =
          [
            ("name", Json.String name);
            ("ph", Json.String ph);
            ("ts", ts);
            ("pid", Json.Int 1);
            ("tid", Json.Int dom);
          ]
        in
        match l.Telemetry.l_kind with
        | "span" ->
            Option.map
              (fun s ->
                Json.Obj
                  (base s.sp_name "X" (us s.sp_start) s.sp_dom
                  @ [ ("dur", us s.sp_dur); ("args", Json.Obj args) ]))
              (span_of_line l)
        | "event" ->
            Some
              (Json.Obj
                 (base l.Telemetry.l_name "i" (us l.Telemetry.l_ts) (dom_of l)
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
