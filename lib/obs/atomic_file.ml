(* Crash-safe artifact writes (DESIGN.md §8).

   Every durable write — violation.asm, inputs.txt, stats.json,
   forensics.json, campaign checkpoints, the fleet's ledger, shard
   results and merged corpus — goes through this one helper: the
   contents land in a sibling temp file first and only an atomic rename
   publishes them, so a SIGKILL mid-write leaves either the old file or
   the new one, never a torn hybrid.

   Transient I/O failures (and the [writer.io] fault point, plus the
   caller's own point, which model them deterministically in tests) are
   retried a bounded number of times — with capped exponential backoff
   and deterministic jitter keyed on the target path ({!Backoff}) —
   before the last exception is re-raised. This is the only retry loop
   for durable writes. *)

let m_writes = Metrics.counter "obs.atomic_writes"
let m_retries = Metrics.counter "obs.atomic_write_retries"

let fp_writer = Faultpoint.point "writer.io"

let retries = 3

let attempt ?fault path contents =
  Option.iter Faultpoint.fire fault;
  Faultpoint.fire fp_writer;
  Dir.ensure_parent path;
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match
     output_string oc contents;
     flush oc
   with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Sys.rename tmp path

let write ?fault path contents =
  Metrics.incr m_writes;
  let key = Hash.fnv1a path in
  let rec go n =
    match attempt ?fault path contents with
    | () -> ()
    | exception ((Sys_error _ | Faultpoint.Injected _) as e) ->
        if n >= retries then raise e
        else begin
          Metrics.incr m_retries;
          let delay_ms = Backoff.delay_ms Backoff.default ~key ~attempt:n in
          if Telemetry.enabled () then
            Telemetry.event "writer.retry"
              [
                ("path", Json.String path);
                ("attempt", Json.Int (n + 1));
                ("delay_ms", Json.Float delay_ms);
                ( "error",
                  Json.String
                    (match e with
                    | Sys_error m -> m
                    | Faultpoint.Injected p -> "injected: " ^ p
                    | _ -> "?") );
              ];
          Backoff.sleep_ms delay_ms;
          go (n + 1)
        end
  in
  go 0
