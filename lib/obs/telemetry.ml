type target = To_channel of out_channel | To_buffer of Buffer.t

type sink = {
  target : target;
  t0 : int;  (* Clock.now_ns at enable time *)
  lock : Mutex.t;
  mutable context : (string * Json.t) list;
}

(* The sink is installed/removed rarely and read on every emit guard:
   an Atomic read keeps the disabled check one load with no lock. *)
let current : sink option Atomic.t = Atomic.make None

let enabled () = Atomic.get current <> None

let install target =
  Atomic.set current
    (Some { target; t0 = Clock.now_ns (); lock = Mutex.create (); context = [] })

let disable () =
  match Atomic.get current with
  | None -> ()
  | Some s ->
      Atomic.set current None;
      (match s.target with
      | To_channel oc -> close_out oc
      | To_buffer _ -> ())

let enable_file path =
  disable ();
  Dir.ensure_parent path;
  install (To_channel (open_out path))

let enable_buffer buf =
  disable ();
  install (To_buffer buf)

let set_context fields =
  match Atomic.get current with
  | None -> ()
  | Some s ->
      Mutex.lock s.lock;
      s.context <- fields;
      Mutex.unlock s.lock

type line = {
  l_ts : int;
  l_kind : string;
  l_name : string;
  l_fields : (string * Json.t) list;
}

let render_line l =
  Json.to_string
    (Json.Obj
       (("ts", Json.Int l.l_ts)
       :: ("kind", Json.String l.l_kind)
       :: ("name", Json.String l.l_name)
       :: l.l_fields))

let parse_line s =
  match Json.parse s with
  | Error e -> Error e
  | Ok (Json.Obj kvs) -> (
      let rest =
        List.filter (fun (k, _) -> k <> "ts" && k <> "kind" && k <> "name") kvs
      in
      match
        ( Option.bind (List.assoc_opt "ts" kvs) Json.to_int,
          Option.bind (List.assoc_opt "kind" kvs) Json.to_str,
          Option.bind (List.assoc_opt "name" kvs) Json.to_str )
      with
      | Some ts, Some kind, Some name ->
          Ok { l_ts = ts; l_kind = kind; l_name = name; l_fields = rest }
      | _ -> Error "line missing ts/kind/name")
  | Ok _ -> Error "line is not a JSON object"

let emit kind name fields =
  match Atomic.get current with
  | None -> ()
  | Some s ->
      let ts = Clock.now_ns () - s.t0 in
      Mutex.lock s.lock;
      let text =
        render_line
          { l_ts = ts; l_kind = kind; l_name = name; l_fields = s.context @ fields }
      in
      (match s.target with
      | To_channel oc ->
          output_string oc text;
          output_char oc '\n'
      | To_buffer buf ->
          Buffer.add_string buf text;
          Buffer.add_char buf '\n');
      Mutex.unlock s.lock

let event name fields = emit "event" name fields

let flush () =
  match Atomic.get current with
  | None -> ()
  | Some s -> (
      Mutex.lock s.lock;
      (match s.target with
      | To_channel oc -> ( try Stdlib.flush oc with Sys_error _ -> ())
      | To_buffer _ -> ());
      Mutex.unlock s.lock)

(* Tolerant whole-trace scan for the [telemetry-check] validator: a run
   killed mid-write (SIGKILL, torn pipe) legitimately leaves one
   truncated final line, which must not fail the whole validation — it is
   detected, reported and tolerated. Unparseable lines anywhere else are
   real corruption and stay errors. *)
type scan = {
  sc_spans : int;
  sc_events : int;
  sc_truncated_tail : bool;
  sc_error : (int * string) option;  (* first non-tail bad line *)
}

let scan_lines lines =
  let last_nonempty =
    List.fold_left
      (fun (i, last) line -> (i + 1, if String.trim line <> "" then i else last))
      (1, 0) lines
    |> snd
  in
  let spans = ref 0 and events = ref 0 and lineno = ref 0 in
  let truncated = ref false and error = ref None in
  List.iter
    (fun line ->
      incr lineno;
      if String.trim line <> "" && !error = None then
        match parse_line line with
        | Ok l ->
            if l.l_kind = "span" then incr spans
            else if l.l_kind = "event" then incr events
            else if !lineno = last_nonempty then truncated := true
            else
              error :=
                Some (!lineno, Printf.sprintf "unknown kind %S" l.l_kind)
        | Error e ->
            if !lineno = last_nonempty then truncated := true
            else error := Some (!lineno, e))
    lines;
  {
    sc_spans = !spans;
    sc_events = !events;
    sc_truncated_tail = !truncated;
    sc_error = !error;
  }

let span name ~start_ns ~dur_ns =
  match Atomic.get current with
  | None -> ()
  | Some s ->
      (* [dom] attributes the span to the OCaml domain that ran it: the
         trace-analytics toolkit groups spans per domain before nesting
         them (spans from different domains of a pooled campaign
         legitimately overlap in time) and computes per-domain
         utilization from the groups. *)
      emit "span" name
        [
          ("start", Json.Int (start_ns - s.t0));
          ("dur_ns", Json.Int dur_ns);
          ("dom", Json.Int (Domain.self () :> int));
        ]
