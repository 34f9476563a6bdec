(* Pollable Unix-domain monitor endpoint. Everything here must be safe
   to run on the fuzz loop's critical path: no blocking syscalls, no
   waiting on clients, bounded work per poll. *)

let m_connections = Metrics.counter "monitor.connections"
let m_requests = Metrics.counter "monitor.requests"
let m_client_lost = Metrics.counter "monitor.client_lost"

(* A client that closes mid-reply turns the server's next write into a
   delivered SIGPIPE, whose default disposition kills the whole campaign
   process. Ignoring the signal turns that write into an EPIPE error,
   which the per-client error handling below absorbs (the client is
   dropped and counted, nothing else happens). Forced once, on the first
   [create] or [request]: a client writing to a vanished server gets the
   same EPIPE, which [request] turns into an [Error]. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

type client = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable out : string;  (* response bytes not yet written *)
  mutable out_off : int;
  mutable close_after_flush : bool;  (* one-shot responses (prom) *)
}

type t = {
  sock : Unix.file_descr;
  sock_path : string;
  mutable clients : client list;
  mutable provider : (string -> (string * Json.t) list option) option;
  mutable closed : bool;
}

(* Keep the endpoint bounded: a stuck or hostile peer cannot make the
   fuzz loop accumulate unbounded buffers. A request line is at most
   [max_request_len] bytes, and a client's next requests are read only
   once every earlier reply is written (see [step_client]). *)
let max_clients = 16
let max_request_len = 4096

let create ~path =
  Lazy.force ignore_sigpipe;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock sock;
  (try
     Unix.bind sock (Unix.ADDR_UNIX path);
     Unix.listen sock 8
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  { sock; sock_path = path; clients = []; provider = None; closed = false }

let set_provider t f = t.provider <- Some f

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* --- Prometheus text exposition ------------------------------------- *)

let sanitize name =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ch
      | _ -> '_')
    name

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let prometheus (s : Metrics.summary) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (name, v) ->
      let n = "revizor_" ^ sanitize name in
      add "# TYPE %s counter\n%s %d\n" n n v)
    s.Metrics.counters;
  List.iter
    (fun (name, v) ->
      let n = "revizor_" ^ sanitize name in
      add "# TYPE %s gauge\n%s %s\n" n n (prom_float v))
    s.Metrics.gauges;
  List.iter
    (fun (name, (h : Metrics.hist_summary)) ->
      let n = "revizor_" ^ sanitize name in
      add "# TYPE %s histogram\n" n;
      (* Registry buckets are (lower bound, count); Prometheus wants
         cumulative counts keyed by inclusive upper bound. A bucket
         whose lower bound is [l >= 1] spans [l, 2l-1]; bucket 0 is the
         single value 0. *)
      let cum = ref 0 in
      List.iter
        (fun (lower, count) ->
          cum := !cum + count;
          let le = if lower = 0 then 0 else (2 * lower) - 1 in
          add "%s_bucket{le=\"%d\"} %d\n" n le !cum)
        h.Metrics.h_buckets;
      add "%s_bucket{le=\"+Inf\"} %d\n" n h.Metrics.h_count;
      add "%s_sum %d\n" n h.Metrics.h_sum;
      add "%s_count %d\n" n h.Metrics.h_count)
    s.Metrics.histograms;
  Buffer.contents buf

(* --- request handling ------------------------------------------------ *)

let parse_command line =
  let line = String.trim line in
  if String.length line > max_request_len then Error "request line too long"
  else if String.length line > 0 && line.[0] = '{' then
    Result.map_error
      (fun e -> "bad request: " ^ e)
      (Result.bind (Json.parse line) (Json.field "cmd" Json.str))
  else Ok line

(* The one list of one-shot commands, on parsed commands: the server
   closes after their reply and the client reads them to EOF. *)
let oneshot = function "prom" -> true | _ -> false

let error_line msg =
  Json.to_string (Json.Obj [ ("error", Json.String msg) ]) ^ "\n"

(* Response bytes for one request line; [`Oneshot] responses close the
   connection after the flush (Prometheus text has no line framing).
   Every JSON reply but an error opens with the schema member. *)
let respond t line =
  Metrics.incr m_requests;
  let reply fields =
    `Line
      (Json.to_string
         (Json.Obj (("schema", Json.String "revizor.monitor.v1") :: fields))
      ^ "\n")
  in
  let error msg = `Line (error_line msg) in
  match parse_command line with
  | Error msg -> error msg
  | Ok "" -> error "empty command"
  | Ok cmd when oneshot cmd -> `Oneshot (prometheus (Metrics.snapshot ()))
  | Ok "metrics" -> reply [ ("metrics", Metrics.to_json (Metrics.snapshot ())) ]
  | Ok cmd -> (
      match t.provider with
      | Some f -> (
          match f cmd with
          | Some fields -> reply fields
          | None -> error (Printf.sprintf "unknown command %S" cmd))
      | None -> (
          (* Minimal provider-less answers, so a monitor outlives the
             campaign that installed the provider and a bare endpoint is
             still probeable. *)
          match cmd with
          | "status" | "health" -> reply [ ("state", Json.String "idle") ]
          | _ -> error (Printf.sprintf "unknown command %S" cmd)))

(* Drain complete request lines out of the client's input buffer. A
   partial line past the limit cannot be framed any more: it is answered
   with an error and the connection closes once the reply is out. *)
let serve_lines t c =
  let data = Buffer.contents c.inbuf in
  match String.rindex_opt data '\n' with
  | None ->
      if Buffer.length c.inbuf > max_request_len then begin
        Buffer.clear c.inbuf;
        c.out <- c.out ^ error_line "request line too long";
        c.close_after_flush <- true
      end
  | Some last_nl ->
      Buffer.clear c.inbuf;
      Buffer.add_string c.inbuf
        (String.sub data (last_nl + 1) (String.length data - last_nl - 1));
      let complete = String.sub data 0 last_nl in
      let lines = String.split_on_char '\n' complete in
      let closing = ref false in
      let out = Buffer.create 256 in
      List.iter
        (fun line ->
          if (not !closing) && String.trim line <> "" then
            match respond t line with
            | `Line s -> Buffer.add_string out s
            | `Oneshot s ->
                Buffer.add_string out s;
                closing := true)
        lines;
      c.out <- c.out ^ Buffer.contents out;
      if !closing then c.close_after_flush <- true

(* Push pending response bytes; [Ok ()] means keep the client. *)
let flush_out c =
  let len = String.length c.out - c.out_off in
  if len = 0 then
    if c.close_after_flush then Error () else Ok ()
  else
    match
      Unix.write_substring c.fd c.out c.out_off len
    with
    | n ->
        c.out_off <- c.out_off + n;
        if c.out_off = String.length c.out then begin
          c.out <- "";
          c.out_off <- 0;
          if c.close_after_flush then Error () else Ok ()
        end
        else Ok ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Ok ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        (* Peer vanished with a reply in flight: swallow, count, drop. *)
        Metrics.incr m_client_lost;
        Error ()
    | exception Unix.Unix_error _ -> Error ()

(* Replies go out before the next requests come in: while a client has
   reply bytes pending, nothing more is read from it. A client that
   writes requests and never reads therefore holds at most the replies
   to one read, and the rest of its requests wait in the kernel's socket
   buffers, which fill up and block the client instead. *)
let step_client t c =
  match flush_out c with
  | Error () -> Error ()
  | Ok () when c.out <> "" -> Ok ()
  | Ok () -> (
      (* Allocated per step, not shared: polls may come from whichever
         domain owns the campaign loop. Clients are rare; the allocation
         is irrelevant next to the syscall. *)
      let read_buf = Bytes.create 1024 in
      match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
      | 0 ->
          (* Peer closed its write side after every reply to its
             complete requests went out: drop it. *)
          Error ()
      | n ->
          Buffer.add_subbytes c.inbuf read_buf 0 n;
          serve_lines t c;
          flush_out c
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Ok ()
      | exception Unix.Unix_error _ ->
          Metrics.incr m_client_lost;
          Error ())

let accept_pending t =
  let continue_ = ref true in
  while !continue_ do
    match Unix.accept ~cloexec:true t.sock with
    | fd, _ ->
        Unix.set_nonblock fd;
        Metrics.incr m_connections;
        if List.length t.clients >= max_clients then
          (try Unix.close fd with Unix.Unix_error _ -> ())
        else
          t.clients <-
            {
              fd;
              inbuf = Buffer.create 128;
              out = "";
              out_off = 0;
              close_after_flush = false;
            }
            :: t.clients
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue_ := false
    | exception Unix.Unix_error _ -> continue_ := false
  done

let poll t =
  if not t.closed then begin
    accept_pending t;
    t.clients <-
      List.filter
        (fun c ->
          match step_client t c with
          | Ok () -> true
          | Error () ->
              close_client c;
              false)
        t.clients
  end

(* Post-campaign drain: serve clients that connected during the final
   test case, without ever blocking shutdown. Polls until [timeout]
   elapses, returning early once no client is connected and nothing is
   buffered — the common no-client case costs one poll, a worker fleet
   tearing down dozens of endpoints pays microseconds, and a stuck
   client can hold the endpoint open for at most [timeout]. *)
let drain ?(timeout = 0.2) t =
  if not t.closed then begin
    let deadline = Unix.gettimeofday () +. timeout in
    let continue_ = ref true in
    while !continue_ do
      poll t;
      if t.clients = [] || Unix.gettimeofday () >= deadline then
        continue_ := false
      else ignore (Unix.select [] [] [] 0.01)
    done
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter close_client t.clients;
    t.clients <- [];
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    try Unix.unlink t.sock_path with Unix.Unix_error _ -> ()
  end

(* --- client ----------------------------------------------------------- *)

(* One request over [fd], a fresh blocking socket, each blocking call
   bounded by what is left of [timeout] (at least 1 ms: a zero socket
   timeout would wait for ever). A read a signal cuts short is retried,
   so the orchestrator's SIGCHLD handler cannot turn a live worker's
   heartbeat into a miss. *)
let exchange fd ~timeout ~path line =
  let deadline = Unix.gettimeofday () +. timeout in
  let to_eof = match parse_command line with Ok cmd -> oneshot cmd | Error _ -> false in
  let closed = Error "connection closed before a complete reply" in
  let late = Error (Printf.sprintf "no reply within %gs" timeout) in
  let bound opt =
    Unix.setsockopt_float fd opt (Float.max 0.001 (deadline -. Unix.gettimeofday ()))
  in
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec recv () =
    if Unix.gettimeofday () >= deadline then late
    else begin
      bound Unix.SO_RCVTIMEO;
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> if to_eof && Buffer.length buf > 0 then Ok (Buffer.contents buf) else closed
      | n -> (
          Buffer.add_subbytes buf chunk 0 n;
          match if to_eof then None else String.index_opt (Buffer.contents buf) '\n' with
          | Some i -> Ok (Buffer.sub buf 0 i)
          | None -> recv ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
    end
  in
  match
    bound Unix.SO_SNDTIMEO;
    Unix.connect fd (Unix.ADDR_UNIX path)
  with
  | exception Unix.Unix_error (e, _, _) -> Error ("cannot connect: " ^ Unix.error_message e)
  | () -> (
      let msg = line ^ "\n" in
      let rec send off =
        if off < String.length msg then
          send (off + Unix.write_substring fd msg off (String.length msg - off))
      in
      match send 0; recv () with
      | reply -> reply
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> late
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> closed
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

let request ~timeout ~path line =
  Lazy.force ignore_sigpipe;
  match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error ("cannot connect: " ^ Unix.error_message e)
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> exchange fd ~timeout ~path line)
