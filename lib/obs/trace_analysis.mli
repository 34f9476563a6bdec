(** Trace analytics over the JSONL telemetry (DESIGN.md §7).

    Pure analyses of recorded [--trace-out] files: span-tree
    reconstruction, per-stage and per-domain utilization summaries,
    span-nesting validation, unaccounted-gap hunting, Chrome
    trace-event (Perfetto-loadable) export and run-to-run diffing.
    Everything operates on parsed {!Telemetry.line} lists, so the CLI,
    the [telemetry-check] validator and the tests share one
    implementation. *)

type span = {
  sp_name : string;
  sp_start : int;  (** ns, sink-relative *)
  sp_dur : int;
  sp_dom : int;  (** emitting domain id (0 for pre-PR8 traces) *)
  sp_tc : int option;  (** test-case context, when recorded *)
}

val spans_of_lines : Telemetry.line list -> span list
(** Every [kind:"span"] line, in file order. Lines missing the
    [start]/[dur_ns] fields are skipped. *)

val load_file : string -> (Telemetry.line list * Telemetry.scan, string) result
(** Read a JSONL trace. Tolerates the one truncated final line of a
    killed campaign exactly like [telemetry-check] does (the partial
    line is dropped; [scan.sc_truncated_tail] reports it); any other
    malformed line is an [Error]. *)

(** {1 Span trees} *)

type node = { n_span : span; n_children : node list }

val span_forest : span list -> node list
(** Reconstruct the span trees of one domain's spans by interval
    containment: a span is a child of the innermost span whose
    [start, start+dur] interval contains it. Spans are emitted at their
    {e end} (children precede parents in the file), so this is the
    inverse of emission order. The input must be single-domain
    (see {!by_domain}); top-level nodes come back in start order. *)

val by_domain : span list -> (int * span list) list
(** Group spans by emitting domain, ascending domain id, file order
    preserved within a group. *)

val depth : node -> int
(** 1 for a leaf. *)

(** {1 Nesting validation}

    A well-formed trace's spans, per domain, either nest or are
    disjoint — a pair that {e partially} overlaps means a span ended
    inside a sibling it did not contain: an orphaned end, the telemetry
    bug [telemetry-check] hunts for. *)

type nesting = {
  nst_spans : int;
  nst_max_depth : int;
  nst_orphans : (span * span) list;
      (** partially-overlapping pairs (first few), empty when valid *)
}

val check_nesting : span list -> nesting
(** Validate one domain's spans (single-domain input, as
    {!span_forest}). *)

(** {1 Gap analysis} *)

type gap = {
  g_start : int;  (** ns, sink-relative *)
  g_dur : int;
  g_after : string;  (** span preceding the gap ("start" at t=0) *)
  g_before : string;  (** span following it *)
}

val deepest_gap : span list -> gap option
(** The longest interval between the first span start and the last span
    end not covered by any span (single-domain input). [None] when
    there are fewer than two spans or no gap at all. This is the
    precise version of [accounted_share]: not just how much wall time
    the stages missed in aggregate, but {e where} the biggest hole
    is. *)

val check_domains : span list -> (int * nesting * gap option) list
(** {!check_nesting} and {!deepest_gap} of each emitting domain's spans,
    by ascending domain id: the one validation pass that
    [telemetry-check --trace] and [trace report] print from. *)

(** {1 Per-stage and per-domain summaries} *)

type stage_stat = {
  st_stage : string;
  st_calls : int;
  st_total_ns : int;
  st_max_ns : int;
}

val stage_stats : span list -> stage_stat list
(** Aggregate spans by name, descending total time. Counts {e every}
    span including nested ones — same convention as the metrics
    registry's [stage.*] counters. *)

type domain_stat = {
  d_dom : int;
  d_spans : int;
  d_busy_ns : int;  (** union of the domain's span intervals *)
  d_stall_ns : int;  (** trace wall span minus busy *)
  d_top_stage : string;  (** stage with the most total time *)
}

val domain_stats : span list -> domain_stat list
(** Per-domain utilization over the whole trace's wall interval
    ([min start, max end] across all domains): how busy the campaign
    loop's domain and each executor-pool domain was, and what it mostly
    ran. Stall time on a pool domain is time spent waiting for the loop
    to generate the next test case; stall on the loop's domain is time
    spent waiting for a pool result. *)

(** {1 Chrome trace-event export} *)

val to_chrome : Telemetry.line list -> Json.t
(** Render spans as complete ("ph":"X") trace events and telemetry
    events as instants ("ph":"i") in the Chrome trace-event JSON
    format, loadable by Perfetto / chrome://tracing. Domains map to
    thread ids; timestamps are microseconds. *)

(** {1 Run-to-run diff} *)

type diff_row = {
  dr_stage : string;
  dr_calls_a : int;
  dr_calls_b : int;
  dr_total_a_ns : int;
  dr_total_b_ns : int;
  dr_mean_a_ns : float;
  dr_mean_b_ns : float;
  dr_mean_ratio : float;  (** B mean / A mean; [nan] when A has no calls *)
}

val diff : span list -> span list -> diff_row list
(** Per-stage comparison of two recorded runs, sorted by descending
    [max total_a total_b] — the perf-triage table behind
    [revizor trace diff]. Stages present in only one run appear with
    zero calls on the other side. *)
