(** Violation flight recorder (DESIGN.md §7).

    A detected violation already gets [violation.asm] / [inputs.txt] /
    [report.txt] from {!Results.save_violation}; the flight recorder
    adds the {e why}: one self-contained [forensics.json] holding the
    program listing, the violating input pair, the contract trace the
    inputs shared, the diverging hardware traces with their symmetric
    difference, the full speculation-event timeline of a diagnostic
    replay (every transient episode with its mechanism, origin PC,
    transient-load count and touched cache sets), and the
    fence-localized leaking region of the original listing. The capture
    runs {e after} the campaign on a dedicated CPU/executor, so fuzzing
    outcomes are bit-identical with the recorder on or off. *)

(** One speculation episode of the diagnostic replay, in execution
    order. *)
type event = {
  ev_kind : string;  (** {!Revizor_uarch.Cpu.kind_to_string} name *)
  ev_origin_pc : int;
  ev_transient_loads : int;
  ev_touched_sets : int list;
}

(** The episodes one input's replay produced. *)
type timeline = { tl_input : int; tl_events : event list }

type t = {
  f_label : string;  (** the violation's vulnerability label *)
  f_program_asm : string;
  f_index_a : int;
  f_index_b : int;  (** violating pair, indices into [f_inputs] *)
  f_inputs : Input.t list;  (** the full priming sequence *)
  f_ctrace : string;  (** the shared contract trace, rendered *)
  f_htrace_a : int list;
  f_htrace_b : int list;
  f_only_a : int list;  (** observations in A's htrace but not B's *)
  f_only_b : int list;
  f_timelines : timeline list;  (** for [f_index_a] and [f_index_b] *)
  f_fenced_asm : string;  (** original listing with surviving LFENCEs *)
  f_fence_positions : int list;
      (** instruction indices after which an LFENCE survived *)
  f_leak_region : (int * int) option;
      (** first/last unfenced instruction index — the leaking region *)
}

val capture : Fuzzer.config -> Violation.t -> t
(** Build the artifact: compile the violation's program, measure the
    priming sequence on a fresh noise-free CPU/executor
    ({!Executor.measure}), take each timeline from the input's first
    recorded repetition (the complete speculation-event log of the run
    right after the priming pass), and fence-localize the leak on the
    original listing ({!Postprocessor.fence_localize}). Deterministic for a given
    violation and config. The campaign's coverage atlas at detection is
    not part of the artifact: it is in the [stats.json] that
    {!Results.save_violation} writes beside it. *)

val to_json : t -> Revizor_obs.Json.t
(** Schema ["revizor.forensics.v1"]. *)

val of_json : Revizor_obs.Json.t -> (t, string) result
(** Inverse of {!to_json}. A [ucoverage] member, which older files
    carry, is ignored. *)

val save : dir:string -> t -> unit
(** Write [dir/forensics.json] (atomically, like the other result
    artifacts), creating [dir] if needed. *)

val file : dir:string -> string
(** [dir/forensics.json]. *)

val load : string -> (t, string) result

val render : t -> string
(** Human-readable multi-section report — what [revizor forensics show]
    prints. *)
