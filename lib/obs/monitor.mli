(** Live campaign monitor endpoint (DESIGN.md §7), server and client.

    A Unix-domain stream socket on which an external client — a human
    with the [revizor monitor] CLI, a CI smoke job, or the fleet
    orchestrator's heartbeat — can watch a running fuzzing campaign. The
    server is {e pollable}, not threaded: the owning loop (the fuzzer)
    calls {!poll} at test-case boundaries; each poll non-blockingly
    accepts pending connections, reads complete request lines and
    writes responses, and never waits for a slow or absent client. With
    no client connected a poll is a single non-blocking [accept], so
    the endpoint costs microseconds per test case.

    {b Protocol}: line-delimited request/response. A request is one
    line — either a bare command word ([status], [metrics], [health],
    [prom]) or a JSON object [{"cmd": "status"}]. The response to a
    line command is exactly one JSON object on one line, whose first
    member is ["schema": "revizor.monitor.v1"] unless it is an error;
    a connection may issue any number of such requests. [prom] (also [prometheus],
    [metrics.prom]) is a one-shot Prometheus-style text exposition of
    the whole metrics registry: the server writes the multi-line text
    and closes the connection (the text format has no line-oriented
    framing of its own). Both request forms name the same command, so
    [{"cmd": "prom"}] is one-shot too. Unknown commands, malformed
    request objects and request lines over 4096 bytes answer
    [{"error": ...}] and keep the connection open; a partial line that
    grows past 4096 bytes is answered the same way and closes the
    connection, since its end can no longer be found. A client's next
    requests are read only once every earlier reply is written, so a
    client that never reads holds at most the replies to the requests
    of one read in the campaign's heap.

    [metrics] and [prom] are served from the process-wide
    {!Metrics} registry by the monitor itself; [status] and [health]
    come from the installed {!set_provider} callback (the fuzz loop
    closes over its live campaign state), falling back to a minimal
    registry-derived answer when no provider is installed. *)

type t

val create : path:string -> t
(** Bind and listen on [path] (an existing socket file at [path] is
    removed first — stale sockets from killed campaigns must not block
    a restart). The listening socket and every accepted client are
    non-blocking.

    @raise Unix.Unix_error if the path cannot be bound. *)

val set_provider : t -> (string -> (string * Json.t) list option) -> unit
(** Install the command handler consulted for non-built-in commands
    ([status], [health], anything future). It returns the reply's
    fields, which the monitor writes after the [schema] member.
    Returning [None] yields an [{"error": "unknown command"}] response.
    Replaces any previous provider; the fuzz loop installs one per
    campaign. *)

val poll : t -> unit
(** Serve whatever is ready without blocking: accept pending
    connections, read available request bytes, answer complete lines,
    flush pending response bytes, drop closed or misbehaving clients.
    Called by the fuzz loop at every test-case boundary; safe to call
    after the campaign ends (a final drain loop can keep serving). *)

val drain : ?timeout:float -> t -> unit
(** Post-campaign drain: keep polling so clients that connected during
    the final test case still get their answers, but never block
    shutdown — returns as soon as no client is connected (the common
    case costs a single poll) and unconditionally after [timeout]
    seconds (default 0.2). Call before {!close}. *)

val close : t -> unit
(** Close every client and the listening socket and unlink the socket
    path. Idempotent. *)

(** {1 Client} *)

val request : timeout:float -> path:string -> string -> (string, string) result
(** [request ~timeout ~path line] connects to the endpoint at [path],
    sends the one request [line] and returns the reply: the first line,
    without its newline, for a line command; everything up to the
    server's close for a one-shot command. [Error] when the endpoint
    cannot be reached, closes before a complete reply, or sends none
    within [timeout] seconds (the bound covers the whole exchange).
    Ignores [SIGPIPE] like {!create}, so a vanished server is an
    [Error], never a signal. *)

(** {1 Prometheus text exposition} *)

val prometheus : Metrics.summary -> string
(** Render a metrics snapshot in the Prometheus text exposition format:
    counters and gauges as single samples, log2-bucketed histograms as
    cumulative [_bucket{le="..."}] series plus [_sum]/[_count]. Metric
    names are prefixed with [revizor_] and sanitized (every character
    outside [[A-Za-z0-9_]] becomes [_]). *)

(** {1 Registry metrics} *)

val m_connections : Metrics.counter
(** [monitor.connections] — clients accepted over the endpoint's
    lifetime. *)

val m_requests : Metrics.counter
(** [monitor.requests] — request lines answered. *)

val m_client_lost : Metrics.counter
(** [monitor.client_lost] — clients that vanished with a reply in
    flight ([EPIPE]/[ECONNRESET] on write, or a hard read error). The
    first {!create} ignores [SIGPIPE] process-wide, so a client closing
    mid-reply surfaces as this counter, never as a fatal signal. *)
