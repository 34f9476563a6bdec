(* Campaign observatory (PR 8): trace analytics (span trees, nesting
   validation, gap hunting, Chrome export, run diffing), the live
   monitor endpoint (request/response round-trip against a real
   campaign, Prometheus exposition, bit-identity with the monitor on or
   off), heartbeat/GC telemetry satellites, and the violation flight
   recorder's artifact schema. *)

open Revizor
module Json = Revizor_obs.Json
module Metrics = Revizor_obs.Metrics
module Telemetry = Revizor_obs.Telemetry
module Monitor = Revizor_obs.Monitor
module TA = Revizor_obs.Trace_analysis

let check = Alcotest.check
let tc = Alcotest.test_case
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let sp ?(dom = 0) ?tc name start dur =
  { TA.sp_name = name; sp_start = start; sp_dur = dur; sp_dom = dom; sp_tc = tc }

(* --- span trees ------------------------------------------------------ *)

let test_span_forest () =
  (* parent [0,100] containing two children, then a disjoint sibling. *)
  let spans =
    [ sp "child1" 10 20; sp "child2" 40 30; sp "parent" 0 100; sp "next" 120 50 ]
  in
  let forest = TA.span_forest spans in
  check int "two roots" 2 (List.length forest);
  let parent = List.hd forest in
  check string "first root is parent" "parent" parent.TA.n_span.TA.sp_name;
  check int "parent has two children" 2 (List.length parent.TA.n_children);
  check int "depth of parent tree" 2 (TA.depth parent);
  check int "depth of leaf" 1 (TA.depth (List.nth forest 1));
  (* Nested three deep. *)
  let deep = [ sp "a" 0 100; sp "b" 10 50; sp "c" 20 10 ] in
  match TA.span_forest deep with
  | [ root ] -> check int "depth 3" 3 (TA.depth root)
  | _ -> Alcotest.fail "expected a single root"

let test_by_domain () =
  let spans = [ sp ~dom:1 "x" 0 10; sp ~dom:0 "y" 0 10; sp ~dom:1 "z" 20 10 ] in
  match TA.by_domain spans with
  | [ (0, g0); (1, g1) ] ->
      check int "dom 0 size" 1 (List.length g0);
      check int "dom 1 size" 2 (List.length g1)
  | _ -> Alcotest.fail "expected domains 0 and 1"

(* --- nesting validation ---------------------------------------------- *)

let test_nesting_valid () =
  let n = TA.check_nesting [ sp "a" 0 100; sp "b" 10 20; sp "c" 50 20 ] in
  check int "spans" 3 n.TA.nst_spans;
  check int "max depth" 2 n.TA.nst_max_depth;
  check bool "no orphans" true (n.TA.nst_orphans = [])

let test_nesting_orphan () =
  (* b starts inside a but ends outside it: a partial overlap. *)
  let n = TA.check_nesting [ sp "a" 0 50; sp "b" 30 40 ] in
  check bool "orphan detected" true (n.TA.nst_orphans <> []);
  let outer, inner = List.hd n.TA.nst_orphans in
  check string "outer" "a" outer.TA.sp_name;
  check string "inner" "b" inner.TA.sp_name

(* --- gap analysis ----------------------------------------------------- *)

let test_deepest_gap () =
  check bool "no gap on empty" true (TA.deepest_gap [] = None);
  check bool "no gap on contiguous" true
    (TA.deepest_gap [ sp "a" 0 10; sp "b" 10 10 ] = None);
  match
    TA.deepest_gap [ sp "a" 0 10; sp "b" 15 10; sp "c" 100 10; sp "d" 40 10 ]
  with
  | Some g ->
      (* gaps: 10..15 (5), 25..40 (15), 50..100 (50). *)
      check int "gap start" 50 g.TA.g_start;
      check int "gap duration" 50 g.TA.g_dur;
      check string "after" "d" g.TA.g_after;
      check string "before" "c" g.TA.g_before
  | None -> Alcotest.fail "expected a gap"

let test_gap_nested_spans () =
  (* A child ending before its parent must not open a phantom gap. *)
  check bool "nested spans, no gap" true
    (TA.deepest_gap [ sp "p" 0 100; sp "c" 10 20 ] = None)

(* --- stage and domain summaries --------------------------------------- *)

let test_stage_stats () =
  let stats =
    TA.stage_stats [ sp "m" 0 10; sp "m" 20 30; sp "x" 100 5 ]
  in
  match stats with
  | [ m; x ] ->
      check string "biggest first" "m" m.TA.st_stage;
      check int "calls" 2 m.TA.st_calls;
      check int "total" 40 m.TA.st_total_ns;
      check int "max" 30 m.TA.st_max_ns;
      check int "x total" 5 x.TA.st_total_ns
  | _ -> Alcotest.fail "expected two stages"

let test_domain_stats () =
  let spans =
    [
      sp ~dom:0 "gen" 0 40;
      sp ~dom:0 "gen" 60 40;  (* busy 80 of wall 100 *)
      sp ~dom:1 "exec" 0 100;  (* busy 100 of wall 100 *)
    ]
  in
  match TA.domain_stats spans with
  | [ d0; d1 ] ->
      check int "dom0 busy" 80 d0.TA.d_busy_ns;
      check int "dom0 stall" 20 d0.TA.d_stall_ns;
      check string "dom0 top" "gen" d0.TA.d_top_stage;
      check int "dom1 busy" 100 d1.TA.d_busy_ns;
      check int "dom1 stall" 0 d1.TA.d_stall_ns
  | _ -> Alcotest.fail "expected two domains"

(* --- JSONL loading, truncated tail ------------------------------------ *)

let write_tmp contents =
  let path = Filename.temp_file "revizor_trace" ".jsonl" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let test_load_file_truncated () =
  let good =
    String.concat "\n"
      [
        {|{"ts":1,"kind":"span","name":"stage.model","start":0,"dur_ns":50,"dom":0}|};
        {|{"ts":2,"kind":"event","name":"fuzz.round","round":1}|};
        {|{"ts":3,"kind":"span","name":"stage.execute","start":60,"dur_ns":40,"dom":0}|};
      ]
  in
  (* A run killed mid-write leaves one torn final line. *)
  let path = write_tmp (good ^ "\n" ^ {|{"ts":4,"kind":"sp|}) in
  (match TA.load_file path with
  | Error e -> Alcotest.fail e
  | Ok (lines, scan) ->
      check bool "truncated tail reported" true scan.Telemetry.sc_truncated_tail;
      check int "spans counted" 2 scan.Telemetry.sc_spans;
      check int "events counted" 1 scan.Telemetry.sc_events;
      let spans = TA.spans_of_lines lines in
      check int "spans extracted" 2 (List.length spans);
      check string "first span name" "stage.model" (List.hd spans).TA.sp_name);
  Sys.remove path;
  (* Corruption anywhere else is an error. *)
  let path = write_tmp ({|{"bad|} ^ "\n" ^ good ^ "\n") in
  (match TA.load_file path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-file corruption must be an error");
  Sys.remove path

(* --- Chrome trace-event export ---------------------------------------- *)

let test_chrome_export () =
  let lines =
    List.filter_map
      (fun s -> Result.to_option (Telemetry.parse_line s))
      [
        {|{"ts":1000,"kind":"span","name":"stage.model","tc":3,"start":0,"dur_ns":5000,"dom":2}|};
        {|{"ts":2000,"kind":"event","name":"fuzz.round","round":1}|};
      ]
  in
  match TA.to_chrome lines with
  | Json.Obj kvs -> (
      match List.assoc "traceEvents" kvs with
      | Json.List [ span_ev; inst_ev ] ->
          let get name j = Option.get (Json.member name j) in
          check string "complete event phase" "X"
            (Option.get (Json.to_str (get "ph" span_ev)));
          check bool "µs duration" true
            (Json.to_float (get "dur" span_ev) = Some 5.0);
          check bool "tid is the domain" true
            (Json.to_int (get "tid" span_ev) = Some 2);
          check bool "tc survives in args" true
            (Option.bind (Json.member "args" span_ev) (Json.member "tc")
            <> None);
          check string "instant event phase" "i"
            (Option.get (Json.to_str (get "ph" inst_ev)))
      | _ -> Alcotest.fail "expected two trace events")
  | _ -> Alcotest.fail "expected an object"

(* --- diff on two recorded runs ----------------------------------------- *)

let spans_of_buffer buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter_map (fun l ->
         if String.trim l = "" then None
         else Result.to_option (Telemetry.parse_line l))
  |> TA.spans_of_lines

let record_run ~seed ~budget =
  let buf = Buffer.create 65536 in
  Telemetry.enable_buffer buf;
  let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target1 in
  let _ = Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases budget) in
  Telemetry.disable ();
  spans_of_buffer buf

let test_trace_diff_runs () =
  let a = record_run ~seed:5L ~budget:12 in
  let b = record_run ~seed:5L ~budget:24 in
  check bool "run A recorded spans" true (a <> []);
  let rows = TA.diff a b in
  check bool "diff has rows" true (rows <> []);
  let execute =
    List.find (fun r -> r.TA.dr_stage = "stage.execute") rows
  in
  check bool "twice the budget, more calls" true
    (execute.TA.dr_calls_b > execute.TA.dr_calls_a);
  check bool "mean ratio is finite" true
    (Float.is_finite execute.TA.dr_mean_ratio);
  (* A stage present on only one side keeps zero calls on the other. *)
  let one_sided = TA.diff a [] in
  List.iter
    (fun r ->
      check int "absent side has zero calls" 0 r.TA.dr_calls_b;
      check bool "absent mean is nan" true (Float.is_nan r.TA.dr_mean_b_ns))
    one_sided

(* --- Prometheus exposition --------------------------------------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else at (i + 1)
  in
  nn = 0 || at 0

let test_prometheus () =
  Metrics.reset ();
  let c = Metrics.counter "obsv.prom.counter" in
  Metrics.add c 7;
  Metrics.set_gauge (Metrics.gauge "obsv.prom-gauge") 2.5;
  let h = Metrics.histogram "obsv.prom.hist" in
  List.iter (Metrics.observe h) [ 0; 1; 3; 3 ];
  let text = Monitor.prometheus (Metrics.snapshot ()) in
  let has needle = contains text needle in
  check bool "counter line" true (has "revizor_obsv_prom_counter 7");
  check bool "sanitized gauge" true (has "revizor_obsv_prom_gauge 2.5");
  check bool "gauge type" true (has "# TYPE revizor_obsv_prom_gauge gauge");
  (* buckets are cumulative: 0 -> 1, le=1 -> 2, le=3 -> 4, +Inf -> 4 *)
  check bool "bucket 0" true (has {|revizor_obsv_prom_hist_bucket{le="0"} 1|});
  check bool "bucket 1" true (has {|revizor_obsv_prom_hist_bucket{le="1"} 2|});
  check bool "bucket 3" true (has {|revizor_obsv_prom_hist_bucket{le="3"} 4|});
  check bool "+Inf bucket" true
    (has {|revizor_obsv_prom_hist_bucket{le="+Inf"} 4|});
  check bool "sum" true (has "revizor_obsv_prom_hist_sum 7");
  check bool "count" true (has "revizor_obsv_prom_hist_count 4")

(* --- monitor round-trip against a live campaign ------------------------ *)

let sock_path name =
  (* Unix-domain socket paths are length-limited (~104 bytes); keep them
     short and unique per test run. *)
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "rvz-%d-%s.sock" (Unix.getpid ()) name)

(* Blocking client, run on its own domain: connect (with retry, the
   server may not have polled yet), send every command in one write,
   read until the responses arrive. *)
let monitor_client path cmds =
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Some fd
    | exception Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if tries = 0 then None
        else begin
          ignore (Unix.select [] [] [] 0.05);
          connect (tries - 1)
        end
  in
  match connect 100 with
  | None -> Error "could not connect"
  | Some fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
      let msg = String.concat "\n" cmds ^ "\n" in
      let rec send off =
        if off < String.length msg then
          send
            (off + Unix.write_substring fd msg off (String.length msg - off))
      in
      send 0;
      let want = List.length cmds in
      let buf = Buffer.create 1024 in
      let bytes = Bytes.create 4096 in
      let count_lines s =
        String.fold_left (fun n ch -> if ch = '\n' then n + 1 else n) 0 s
      in
      let rec recv () =
        if count_lines (Buffer.contents buf) >= want then
          Ok
            (String.split_on_char '\n' (Buffer.contents buf)
            |> List.filter (fun l -> String.trim l <> ""))
        else
          match Unix.read fd bytes 0 (Bytes.length bytes) with
          | 0 -> Error "server closed early"
          | n ->
              Buffer.add_subbytes buf bytes 0 n;
              recv ()
          | exception Unix.Unix_error _ -> Error "read failed"
      in
      recv ()

(* Keep serving the socket from the test's own domain until the client
   signals it is done (it may connect or finish after [fuzz] returned). *)
let serve_until_done mon done_flag =
  let deadline = Unix.gettimeofday () +. 30. in
  while (not (Atomic.get done_flag)) && Unix.gettimeofday () < deadline do
    Monitor.poll mon;
    ignore (Unix.select [] [] [] 0.005)
  done

(* The campaign's live status fields, in the order the [status] reply
   (after its schema and state) and the [fuzz.heartbeat] event carry
   them. *)
let live_status_keys =
  [
    "test_cases"; "rounds"; "inputs_tested"; "coverage_combinations";
    "throughput_per_hour"; "gen_insts"; "gen_blocks"; "n_inputs";
    "elapsed_s"; "ucov_features"; "ucov_per_1k_tc";
  ]

let keys = function Json.Obj kvs -> List.map fst kvs | _ -> []

let test_monitor_roundtrip () =
  let path = sock_path "live" in
  let mon = Monitor.create ~path in
  Fun.protect ~finally:(fun () -> Monitor.close mon) @@ fun () ->
  let done_flag = Atomic.make false in
  let client =
    Domain.spawn (fun () ->
        let r = monitor_client path [ "status"; "health"; "metrics"; "bogus" ] in
        Atomic.set done_flag true;
        r)
  in
  (* A real 200-test-case campaign serves the client at its test-case
     boundaries. *)
  let cfg = Target.fuzzer_config ~seed:11L Contract.ct_seq Target.target1 in
  let _ = Fuzzer.fuzz ~monitor:mon cfg ~budget:(Fuzzer.Test_cases 200) in
  serve_until_done mon done_flag;
  let lines =
    match Domain.join client with
    | Ok lines -> lines
    | Error e -> Alcotest.fail e
  in
  check int "four responses" 4 (List.length lines);
  let parse l =
    match Json.parse l with Ok j -> j | Error e -> Alcotest.fail e
  in
  let status = parse (List.nth lines 0) in
  check (Alcotest.list string) "status keys, in order"
    ("schema" :: "state" :: live_status_keys)
    (keys status);
  check bool "status schema" true
    (Option.bind (Json.member "schema" status) Json.to_str
    = Some "revizor.monitor.v1");
  check bool "status has test_cases" true
    (Option.bind (Json.member "test_cases" status) Json.to_int <> None);
  check bool "status throughput positive" true
    (match Option.bind (Json.member "throughput_per_hour" status) Json.to_float with
    | Some t -> t > 0.
    | None -> false);
  let health = parse (List.nth lines 1) in
  check (Alcotest.list string) "health keys, in order"
    [
      "schema"; "state"; "watchdog_trips"; "faulted_test_cases";
      "skipped_pathological"; "checkpoint_age_s";
    ]
    (keys health);
  check bool "health has watchdog_trips" true
    (Json.member "watchdog_trips" health <> None);
  let metrics = parse (List.nth lines 2) in
  check (Alcotest.list string) "metrics keys" [ "schema"; "metrics" ] (keys metrics);
  check bool "metrics carries registry" true
    (Option.bind (Json.member "metrics" metrics) (Json.member "counters")
    <> None);
  let err = parse (List.nth lines 3) in
  check bool "unknown command errors" true (Json.member "error" err <> None)

let test_monitor_idle () =
  let path = sock_path "idle" in
  let mon = Monitor.create ~path in
  Fun.protect ~finally:(fun () -> Monitor.close mon) @@ fun () ->
  let done_flag = Atomic.make false in
  let client =
    Domain.spawn (fun () ->
        let r = monitor_client path [ "status" ] in
        Atomic.set done_flag true;
        r)
  in
  serve_until_done mon done_flag;
  let lines =
    match Domain.join client with
    | Ok l -> l
    | Error e -> Alcotest.fail e
  in
  match Json.parse (List.hd lines) with
  | Ok j ->
      check bool "provider-less status answers idle" true
        (Option.bind (Json.member "state" j) Json.to_str = Some "idle")
  | Error e -> Alcotest.fail e

(* --- monitor flow control and malformed requests ------------------------ *)

let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

(* A client that pipelines requests and never reads must not grow the
   campaign's heap: 100 [metrics] requests per poll for 400 polls (the
   fuzz loop polls once per test case). Then a client that sends 200
   [status] requests before reading anything gets all 200 replies, in
   order: holding back reads must not lose or reorder a request. *)
let test_monitor_slow_readers () =
  let path = sock_path "slow" in
  let mon = Monitor.create ~path in
  Fun.protect ~finally:(fun () -> Monitor.close mon) @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  let burst = String.concat "" (List.init 100 (fun _ -> "metrics\n")) in
  let before = live_bytes () in
  for _ = 1 to 400 do
    (try ignore (Unix.write_substring fd burst 0 (String.length burst))
     with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    Monitor.poll mon
  done;
  let growth = live_bytes () - before in
  check bool
    (Printf.sprintf "live heap grew by %d bytes, under 16 MB" growth)
    true
    (growth < 16 * 1024 * 1024);
  let served = ref 0 in
  Monitor.set_provider mon (fun cmd ->
      if cmd = "status" then begin
        incr served;
        Some [ ("n", Json.Int !served) ]
      end
      else None);
  let done_flag = Atomic.make false in
  let client =
    Domain.spawn (fun () ->
        let r = monitor_client path (List.init 200 (fun _ -> "status")) in
        Atomic.set done_flag true;
        r)
  in
  serve_until_done mon done_flag;
  match Domain.join client with
  | Error e -> Alcotest.fail e
  | Ok lines ->
      check
        (Alcotest.list (Alcotest.option int))
        "200 replies in request order"
        (List.init 200 (fun i -> Some (i + 1)))
        (List.map
           (fun l ->
             match Json.parse l with
             | Ok j -> Option.bind (Json.member "n" j) Json.to_int
             | Error _ -> None)
           lines)

(* Truncated JSON, a non-string [cmd] and an over-long line each get an
   [{"error": ...}] reply, and the endpoint keeps answering. *)
let test_monitor_malformed_requests () =
  let path = sock_path "bad" in
  let mon = Monitor.create ~path in
  Fun.protect ~finally:(fun () -> Monitor.close mon) @@ fun () ->
  let ask cmds =
    let done_flag = Atomic.make false in
    let client =
      Domain.spawn (fun () ->
          let r = monitor_client path cmds in
          Atomic.set done_flag true;
          r)
    in
    serve_until_done mon done_flag;
    match Domain.join client with
    | Ok lines -> List.map (fun l -> Result.get_ok (Json.parse l)) lines
    | Error e -> Alcotest.fail e
  in
  let is_error j = Json.member "error" j <> None in
  let is_idle j =
    Option.bind (Json.member "state" j) Json.to_str = Some "idle"
  in
  (match ask [ {|{"cmd": "sta|}; {|{"cmd": 7}|}; "status" ] with
  | [ truncated; non_string; status ] ->
      check bool "truncated JSON errors" true (is_error truncated);
      check bool "non-string cmd errors" true (is_error non_string);
      check bool "same connection still answers" true (is_idle status)
  | l -> Alcotest.failf "expected 3 replies, got %d" (List.length l));
  (match ask [ String.make 10_000 'x' ] with
  | [ too_long ] -> check bool "over-long line errors" true (is_error too_long)
  | l -> Alcotest.failf "expected 1 reply, got %d" (List.length l));
  match ask [ "status" ] with
  | [ status ] -> check bool "endpoint still serves" true (is_idle status)
  | l -> Alcotest.failf "expected 1 reply, got %d" (List.length l)

(* --- the monitor's own client -------------------------------------------- *)

(* Run [f] on its own domain while this one serves [mon], and return its
   result. *)
let served mon f =
  let done_flag = Atomic.make false in
  let client =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set done_flag true) f)
  in
  serve_until_done mon done_flag;
  Domain.join client

(* A raw endpoint that accepts one connection, reads the request and
   closes without replying; [f path] runs as its client. *)
let with_mute_endpoint name f =
  let path = sock_path name in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close sock;
      try Unix.unlink path with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 1;
  let server =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept sock in
        ignore (Unix.read fd (Bytes.create 64) 0 64);
        Unix.close fd)
  in
  let r = f path in
  Domain.join server;
  r

let type_lines text =
  List.length
    (List.filter
       (String.starts_with ~prefix:"# TYPE revizor_")
       (String.split_on_char '\n' text))

(* A line command answers one line (the newline stripped); both request
   forms of [prom] read the whole exposition up to the server's close. *)
let test_monitor_request () =
  let path = sock_path "req" in
  let mon = Monitor.create ~path in
  Fun.protect ~finally:(fun () -> Monitor.close mon) @@ fun () ->
  let ask line = served mon (fun () -> Monitor.request ~timeout:30. ~path line) in
  check
    (Alcotest.result string string)
    "provider-less status, schema first"
    (Ok {|{"schema":"revizor.monitor.v1","state":"idle"}|})
    (ask "status");
  let bare = Result.get_ok (ask "prom") in
  let json = Result.get_ok (ask {|{"cmd": "prom"}|}) in
  check bool "the exposition has several metrics" true (type_lines bare >= 3);
  check int "the JSON form reads the whole exposition" (type_lines bare)
    (type_lines json);
  check bool "the exposition ends with its last line" true
    (String.ends_with ~suffix:"\n" json)

(* No endpoint, an endpoint that closes without replying, and one that
   never answers are each an [Error], the last within its timeout. *)
let test_monitor_request_errors () =
  let is_error prefix = function
    | Error e -> String.starts_with ~prefix e
    | Ok r -> Alcotest.failf "unexpected reply %S" r
  in
  check bool "no endpoint" true
    (is_error "cannot connect"
       (Monitor.request ~timeout:1. ~path:(sock_path "none") "status"));
  check bool "closed without a reply" true
    (is_error "connection closed before a complete reply"
       (with_mute_endpoint "mute" (fun path ->
            Monitor.request ~timeout:5. ~path "status")));
  let path = sock_path "deaf" in
  let mon = Monitor.create ~path in
  Fun.protect ~finally:(fun () -> Monitor.close mon) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  check bool "no reply in time" true
    (is_error "no reply within" (Monitor.request ~timeout:0.2 ~path "status"));
  check bool "bounded by the timeout" true (Unix.gettimeofday () -. t0 < 2.)

(* The CLI built beside the tests (test/dune depends on it): its exit
   status and its two output streams, while this domain serves [mon]
   (when given). *)
let run_cli ?mon args =
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/revizor_cli.exe"
  in
  let out = Filename.temp_file "rvz-cli" ".out"
  and err = Filename.temp_file "rvz-cli" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove out; Sys.remove err) @@ fun () ->
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
  and fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process cli (Array.of_list ("revizor" :: args)) Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let rec wait () =
    Option.iter Monitor.poll mon;
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        ignore (Unix.select [] [] [] 0.005);
        wait ()
    | _, Unix.WEXITED code -> code
    | _ -> Alcotest.fail "revizor died on a signal"
  in
  let code = wait () in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  (code, read out, read err)

let test_monitor_cli () =
  let code, out, err =
    with_mute_endpoint "cli" (fun path -> run_cli [ "monitor"; path; "status" ])
  in
  check int "exit 2 when the endpoint closes without replying" 2 code;
  check string "nothing on stdout" "" out;
  check bool "the error names the socket" true
    (String.starts_with ~prefix:("revizor: " ^ sock_path "cli" ^ ": ") err);
  let path = sock_path "cliprom" in
  let mon = Monitor.create ~path in
  Fun.protect ~finally:(fun () -> Monitor.close mon) @@ fun () ->
  let code, bare, _ = run_cli ~mon [ "monitor"; path; "prom" ] in
  check int "bare prom exits 0" 0 code;
  let code, json, _ = run_cli ~mon [ "monitor"; path; {|{"cmd":"prom"}|} ] in
  check int "JSON prom exits 0" 0 code;
  check bool "bare prom prints the exposition" true (type_lines bare >= 3);
  check int "JSON prom prints every metric" (type_lines bare) (type_lines json)

(* --- monitor on/off bit-identity --------------------------------------- *)


let deterministic_counters (s : Metrics.summary) =
  List.filter
    (fun (name, _) ->
      (not (String.ends_with ~suffix:"ns" name))
      && (not (String.starts_with ~prefix:"pool." name))
      && not (String.starts_with ~prefix:"monitor." name))
    s.Metrics.counters

let counters_t = Alcotest.(list (pair string int))

let run_campaign ?monitor ~seed ~budget () =
  Metrics.reset ();
  let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target1 in
  let outcome, stats =
    Fuzzer.fuzz ?monitor cfg ~budget:(Fuzzer.Test_cases budget)
  in
  ( Support.outcome_fingerprint outcome,
    Support.stats_fingerprint stats,
    deterministic_counters (Metrics.snapshot ()) )

let test_monitor_transparent () =
  let off_o, off_s, off_c = run_campaign ~seed:21L ~budget:30 () in
  let path = sock_path "ab" in
  let mon = Monitor.create ~path in
  let on_o, on_s, on_c =
    Fun.protect
      ~finally:(fun () -> Monitor.close mon)
      (fun () -> run_campaign ~monitor:mon ~seed:21L ~budget:30 ())
  in
  check string "outcome identical" off_o on_o;
  check string "stats identical" off_s on_s;
  check counters_t "counters identical" off_c on_c

(* --- heartbeat + GC gauges satellites ----------------------------------- *)

let test_heartbeat_events () =
  let buf = Buffer.create 16384 in
  Telemetry.enable_buffer buf;
  let cfg = Target.fuzzer_config ~seed:7L Contract.ct_seq Target.target1 in
  let _ = Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 170) in
  Telemetry.disable ();
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter_map (fun l ->
           if String.trim l = "" then None
           else Result.to_option (Telemetry.parse_line l))
  in
  let beats =
    List.filter (fun (l : Telemetry.line) -> l.Telemetry.l_name = "fuzz.heartbeat") lines
  in
  (* 170 test cases, every 50th: tc 50, 100, 150. *)
  check int "heartbeat count" 3 (List.length beats);
  let beat = List.hd beats in
  check bool "heartbeat has test_cases" true
    (Option.bind
       (List.assoc_opt "test_cases" beat.Telemetry.l_fields)
       Json.to_int
    = Some 50);
  check (Alcotest.list string)
    "heartbeat carries the status reply's fields after its tc context"
    live_status_keys
    (List.map fst (List.remove_assoc "tc" beat.Telemetry.l_fields));
  check bool "heartbeat has throughput" true
    (List.mem_assoc "throughput_per_hour" beat.Telemetry.l_fields);
  check bool "heartbeat has coverage" true
    (List.mem_assoc "coverage_combinations" beat.Telemetry.l_fields)

let test_gc_gauges () =
  Metrics.reset ();
  let cfg = Target.fuzzer_config ~seed:3L Contract.ct_seq Target.target1 in
  let _ = Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 10) in
  let s = Metrics.snapshot () in
  let gauge name = List.assoc_opt name s.Metrics.gauges in
  check bool "heap words sampled" true
    (match gauge "gc.heap_words" with Some v -> v > 0. | None -> false);
  check bool "minor words sampled" true
    (match gauge "gc.minor_words" with Some v -> v > 0. | None -> false);
  check bool "minor collections sampled" true
    (gauge "gc.minor_collections" <> None);
  check bool "major collections sampled" true
    (gauge "gc.major_collections" <> None);
  check bool "domain count sampled" true
    (match gauge "runtime.domain_count" with Some v -> v >= 1. | None -> false)

(* The [gc.minor_words] gauge counts allocation that has not yet been
   through a minor collection: 10,000 cons cells are 30,000 words, and
   the gauge moves by them (plus the few words sampling itself takes). *)
let test_minor_words_gauge () =
  let minor_words = Metrics.gauge "gc.minor_words" in
  let gauge () =
    Fuzzer.sample_runtime ();
    Metrics.gauge_value minor_words
  in
  let rec cons n acc = if n = 0 then acc else cons (n - 1) (n :: acc) in
  let before = gauge () in
  ignore (Sys.opaque_identity (cons 10_000 []));
  let delta = gauge () -. before in
  check bool
    (Printf.sprintf "minor-words delta %.0f within [30000, 31000]" delta)
    true
    (delta >= 30_000. && delta <= 31_000.)

(* --- violation flight recorder ----------------------------------------- *)

let find_violation () =
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target5 in
  match Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 4000) with
  | Fuzzer.Violation v, _ -> (cfg, v)
  | Fuzzer.No_violation, _ -> Alcotest.fail "expected a spectre violation"

let test_forensics_artifact () =
  let cfg, v = find_violation () in
  let f = Forensics.capture cfg v in
  (* The divergence fields mirror the violation. *)
  check bool "diverging traces differ" true (f.Forensics.f_htrace_a <> f.Forensics.f_htrace_b);
  check bool "symmetric difference nonempty" true
    (f.Forensics.f_only_a <> [] || f.Forensics.f_only_b <> []);
  (* Both violating inputs got a speculation timeline, and a Spectre
     violation must show at least one transient episode. *)
  check int "two timelines" 2 (List.length f.Forensics.f_timelines);
  check bool "transient episodes recorded" true
    (List.exists
       (fun t -> t.Forensics.tl_events <> [])
       f.Forensics.f_timelines);
  check bool "leak region recovered" true (f.Forensics.f_leak_region <> None);
  (match f.Forensics.f_leak_region with
  | Some (first, last) ->
      check bool "leak region ordered" true (first <= last);
      check bool "leak region within program" true
        (first >= 0
        && last
           < Revizor_isa.Program.num_insts v.Violation.program)
  | None -> ());
  (* Schema round-trip: to_json |> of_json is the identity. *)
  let j = Forensics.to_json f in
  check bool "schema tag" true
    (Option.bind (Json.member "schema" j) Json.to_str
    = Some "revizor.forensics.v1");
  (match Forensics.of_json j with
  | Error e -> Alcotest.fail e
  | Ok f' ->
      check string "codec round-trip" (Json.to_string j)
        (Json.to_string (Forensics.to_json f')));
  (* Older files also carry the campaign's atlas; it is read from
     stats.json now, and the member is ignored. *)
  (match j with
  | Json.Obj kvs -> (
      let with_atlas =
        Json.Obj (kvs @ [ ("ucoverage", Ucoverage.to_json (Ucoverage.create ())) ])
      in
      match Forensics.of_json with_atlas with
      | Error e -> Alcotest.failf "file with an atlas refused: %s" e
      | Ok f' ->
          check string "atlas member ignored" (Json.to_string j)
            (Json.to_string (Forensics.to_json f')))
  | _ -> Alcotest.fail "forensics document is not an object");
  (* Disk round-trip via save/load. *)
  let dir = Filename.temp_file "revizor_forensics" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists (Forensics.file ~dir) then
        Sys.remove (Forensics.file ~dir);
      if Sys.file_exists dir then Sys.rmdir dir)
  @@ fun () ->
  Forensics.save ~dir f;
  (match Forensics.load (Forensics.file ~dir) with
  | Error e -> Alcotest.fail e
  | Ok f' ->
      check string "disk round-trip" (Json.to_string j)
        (Json.to_string (Forensics.to_json f')));
  (* The renderer covers every section. *)
  let rendered = Forensics.render f in
  List.iter
    (fun needle ->
      check bool (Printf.sprintf "render mentions %s" needle) true
        (contains rendered needle))
    [
      "Program"; "Violating inputs"; "Contract trace";
      "Hardware trace divergence"; "Speculation timeline";
      "Leak localization"; "LFENCE";
    ]

let test_forensics_deterministic () =
  let cfg, v = find_violation () in
  let a = Json.to_string (Forensics.to_json (Forensics.capture cfg v)) in
  let b = Json.to_string (Forensics.to_json (Forensics.capture cfg v)) in
  check string "capture is deterministic" a b

(* Replay oracle for the recorder's timelines, sharing none of the
   executor's loop: a fresh CPU, a session reset, one priming pass, then
   one recorded pass, each run being [Cpu.run] under [Attack.observe] on
   a freshly materialized input state after the input's last data word
   is loaded into the fill buffer. Returns every input's event list of
   the recorded pass. *)
let oracle_events (cfg : Fuzzer.config) (v : Violation.t) =
  let open Revizor_uarch in
  let prog = Revizor_emu.Compiled.of_program_exn v.Violation.program in
  let cpu = Cpu.create cfg.Fuzzer.uarch in
  let threat = cfg.Fuzzer.executor.Executor.threat in
  let last_data_word =
    Int64.add Revizor_emu.Layout.sandbox_base
      (Int64.of_int
         ((Revizor_emu.Layout.data_pages * Revizor_emu.Layout.page_size) - 8))
  in
  let run input =
    let state = Input.to_state input in
    Cpu.set_fill_buffer cpu
      (Revizor_emu.Memory.read state.Revizor_emu.State.mem ~addr:last_data_word
         Revizor_isa.Width.W64);
    ignore
      (Attack.observe cpu threat (fun () ->
           Cpu.run ~max_steps:cfg.Fuzzer.executor.Executor.max_steps cpu prog
             state));
    Cpu.events cpu
  in
  Cpu.reset_session cpu;
  List.iter (fun input -> ignore (run input)) v.Violation.inputs;
  List.map run v.Violation.inputs

(* The recorder reads each timeline from the input's first recorded
   repetition of a noise-free measurement. That repetition must equal the
   oracle's recorded pass for every input of the sequence (the violating
   pair alone sits late in the sequence, where priming has long
   converged), and the artifact's two timelines must be the pair's. *)
let test_forensics_timelines_match_oracle () =
  let to_forensics (e : Revizor_uarch.Cpu.event) =
    {
      Forensics.ev_kind = Revizor_uarch.Cpu.kind_to_string e.Revizor_uarch.Cpu.kind;
      ev_origin_pc = e.Revizor_uarch.Cpu.origin_pc;
      ev_transient_loads = e.Revizor_uarch.Cpu.transient_loads;
      ev_touched_sets = e.Revizor_uarch.Cpu.touched_sets;
    }
  in
  List.iter
    (fun (label, contract, (target : Target.t), gadget) ->
      match Experiments.check_gadget contract target gadget with
      | Ok None | Error _ -> Alcotest.failf "%s: expected a violation" label
      | Ok (Some v) ->
          let cfg = Target.fuzzer_config ~seed:42L contract target in
          let oracle = Array.of_list (oracle_events cfg v) in
          let executor =
            Executor.create
              (Revizor_uarch.Cpu.create cfg.Fuzzer.uarch)
              cfg.Fuzzer.executor
          in
          let measured =
            Executor.measure executor
              (Revizor_emu.Compiled.of_program_exn v.Violation.program)
              v.Violation.inputs
          in
          Array.iteri
            (fun i (m : Executor.measurement) ->
              check bool
                (Printf.sprintf "%s: input %d, first repetition" label i)
                true
                (List.nth m.Executor.runs (List.length m.Executor.runs - 1)
                = oracle.(i)))
            measured;
          let f = Forensics.capture cfg v in
          check int (label ^ ": two timelines") 2
            (List.length f.Forensics.f_timelines);
          List.iter
            (fun (tl : Forensics.timeline) ->
              check bool
                (Printf.sprintf "%s: input %d timeline" label
                   tl.Forensics.tl_input)
                true
                (List.map to_forensics oracle.(tl.Forensics.tl_input)
                = tl.Forensics.tl_events))
            f.Forensics.f_timelines;
          check bool (label ^ ": some episode recorded") true
            (List.exists
               (fun (tl : Forensics.timeline) -> tl.Forensics.tl_events <> [])
               f.Forensics.f_timelines))
    [
      ("V1", Contract.ct_seq, Target.target5, Gadgets.spectre_v1);
      ("V4", Contract.ct_seq, Target.target2, Gadgets.spectre_v4);
      ("MDS", Contract.ct_seq, Target.target7, Gadgets.mds_lfb);
      ("LVI", Contract.ct_seq, Target.target8, Gadgets.lvi_null);
    ]

let () =
  Alcotest.run "observatory"
    [
      ( "trace-analysis",
        [
          tc "span forest" `Quick test_span_forest;
          tc "by domain" `Quick test_by_domain;
          tc "nesting valid" `Quick test_nesting_valid;
          tc "nesting orphan" `Quick test_nesting_orphan;
          tc "deepest gap" `Quick test_deepest_gap;
          tc "gap with nesting" `Quick test_gap_nested_spans;
          tc "stage stats" `Quick test_stage_stats;
          tc "domain stats" `Quick test_domain_stats;
          tc "load file truncated tail" `Quick test_load_file_truncated;
          tc "chrome export" `Quick test_chrome_export;
          tc "diff two runs" `Slow test_trace_diff_runs;
        ] );
      ( "monitor",
        [
          tc "prometheus exposition" `Quick test_prometheus;
          tc "live round-trip" `Slow test_monitor_roundtrip;
          tc "provider-less idle" `Quick test_monitor_idle;
          tc "bit-identical on/off" `Slow test_monitor_transparent;
          tc "slow readers: bounded heap, replies in order" `Quick
            test_monitor_slow_readers;
          tc "malformed requests answered" `Quick
            test_monitor_malformed_requests;
          tc "client: line and one-shot replies" `Quick test_monitor_request;
          tc "client: no endpoint, no reply, closed early" `Quick
            test_monitor_request_errors;
          tc "revizor monitor: exit status and whole exposition" `Quick
            test_monitor_cli;
        ] );
      ( "satellites",
        [
          tc "heartbeat events" `Slow test_heartbeat_events;
          tc "gc gauges" `Slow test_gc_gauges;
          tc "minor-words gauge counts a known allocation" `Quick
            test_minor_words_gauge;
        ] );
      ( "forensics",
        [
          tc "artifact schema and render" `Slow test_forensics_artifact;
          tc "capture deterministic" `Slow test_forensics_deterministic;
          tc "timelines match a replay oracle" `Quick
            test_forensics_timelines_match_oracle;
        ] );
    ]
