(** Append-only JSONL span/event sink.

    One global sink per process, disabled by default. When disabled,
    {!enabled} is [false] and every emit is a no-op — hot paths guard
    with [if Telemetry.enabled () then ...] so the disabled path builds
    no field lists and allocates nothing. When enabled, each span/event
    becomes one JSON object per line:

    {v
    {"ts":182734,"kind":"span","name":"stage.model","tc":17,"dur_ns":812345}
    {"ts":190021,"kind":"event","name":"coverage.grow","tc":25,"combos":14}
    v}

    [ts] is monotonic nanoseconds since the sink was enabled. Context
    fields (e.g. the current test-case number) are merged into every
    line. Emission is serialized by a mutex, so pool domains can emit
    concurrently. *)

val enabled : unit -> bool

val enable_file : string -> unit
(** Open [path] for writing (truncating), creating its directory if it
    is missing ({!Dir.ensure_parent}), and direct all events to it.
    Replaces any previous sink. *)

val enable_buffer : Buffer.t -> unit
(** Direct events to an in-memory buffer (tests). *)

val disable : unit -> unit
(** Flush and close the current sink (if any); return to no-op mode. *)

val flush : unit -> unit
(** Flush the current sink's channel without closing it (graceful
    shutdown checkpoints call this so the trace survives a later kill). *)

val set_context : (string * Json.t) list -> unit
(** Fields merged into every subsequent line (e.g. [[("tc", Int n)]]).
    No-op while disabled, so the fuzz loop can set it unconditionally
    guarded by {!enabled}. *)

val event : string -> (string * Json.t) list -> unit
(** Emit a [kind:"event"] line. No-op while disabled. *)

val span : string -> start_ns:int -> dur_ns:int -> unit
(** Emit a [kind:"span"] line; [start_ns] is a {!Clock.now_ns} value and
    is translated to sink-relative time. The line carries a [dom] field
    identifying the emitting OCaml domain, so the trace-analytics
    toolkit can group spans per domain before nesting them (spans of
    different domains of a pooled campaign legitimately overlap).
    No-op while disabled. *)

(** {1 Parsing}

    The reader half, used by the round-trip tests and the
    [telemetry-check] validator. *)

type line = {
  l_ts : int;
  l_kind : string;  (** ["span"] or ["event"] *)
  l_name : string;
  l_fields : (string * Json.t) list;  (** everything else, in order *)
}

val parse_line : string -> (line, string) result
val render_line : line -> string
(** Inverse of {!parse_line}: [parse_line (render_line l) = Ok l]. *)

(** Result of scanning a whole JSONL trace. A malformed {e final}
    non-empty line is the signature of a run killed mid-write and is
    tolerated (reported via [sc_truncated_tail]); malformed lines
    anywhere else are corruption ([sc_error]). *)
type scan = {
  sc_spans : int;
  sc_events : int;
  sc_truncated_tail : bool;
  sc_error : (int * string) option;  (** (line number, message) *)
}

val scan_lines : string list -> line list * scan
(** Parse the lines of a trace file (as split on ['\n']) once: the span
    and event lines in file order, and the scan. Used by the
    [telemetry-check] validator and the trace toolkit. *)
