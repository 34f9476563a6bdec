(** Drivers for every experiment of the paper's evaluation (§6 and the
    artifact appendix). [revizor reproduce] prints these results; the
    integration tests assert their shape against the paper's Table 3/4/5
    expectations. All drivers are deterministic in their
    seeds. *)

val check_gadget :
  ?seed:int64 ->
  Contract.t ->
  Target.t ->
  Gadgets.t ->
  (Violation.t option, string) result
(** Run the full per-test-case pipeline on a hand-written gadget,
    sampling up to three deterministic sequences of 50 inputs before
    concluding compliance. The first violation found wins; [Error] (the
    last fault) when none violates and some sequence faulted
    architecturally. [revizor gadget] and the §6.3 table both print
    this verdict. *)

(** {1 Table 3 — contract violations per target} *)

type t3_outcome =
  | Detected of { label : string; test_cases : int }
  | Not_detected of { test_cases : int }
  | Skipped  (** a stronger contract was already satisfied (the ×* cells) *)
  | Gadget_demo of { label : string }
      (** the "-var" leaks are too rare for random discovery within a small
          budget (the paper's artifact notes the same); the mechanism is
          demonstrated on the §6.3 gadget instead *)

type t3_cell = {
  target : Target.t;
  contract : Contract.t;
  outcome : t3_outcome;
  paper : string;  (** what the paper's Table 3 reports for this cell *)
}

val table3 : ?budget:int -> ?seed:int64 -> unit -> t3_cell list
(** All 8 × 4 cells, fuzzing each for at most [budget] test cases
    (default 400). *)

(** {1 Table 4 — detection time} *)

val table4_setups : (string * string * Contract.t * Target.t) option list
(** The 12 cells of Table 4 in row-major order: (contract-permitted
    leakage, leak to detect, contract, target), [None] for the two N/A
    cells. A violation found in a cell carries the column's label, with
    ["LVI"] found as ["LVI-Null"]. *)

type t4_cell = {
  row : string;  (** contract-permitted leakage: "None" / "V4" / "V1" *)
  column : string;  (** leak to detect: "V4" / "V1" / "MDS" / "LVI" *)
  budget : int;  (** test cases each run may spend *)
  test_cases : int option list;
      (** per run, in run order: the test cases to the first violation,
          or [None] when the run missed within [budget] *)
}

val table4 :
  ?runs:int -> ?budget:int -> ?seed:int64 -> unit -> t4_cell option list
(** The 12 cells of Table 4 in row-major order ([None] for the two N/A
    cells). Default 10 runs per cell, as in the paper, and a budget of
    600 test cases per run. *)

val t4_median : t4_cell -> float * bool
(** Median test cases to the first violation over all runs, a miss
    counted as the budget, and whether a miss enters it: then the value
    is only a lower bound (censored). Needs at least one run. *)

(** {1 Table 5 — inputs to violation on hand-written gadgets} *)

type t5_row = {
  gadget : Gadgets.t;
  runs : int;
  found : int;
  mean_inputs : float;
  median_inputs : int;
  min_inputs : int;
  max_inputs : int;
}

val table5 : ?runs:int -> ?max_inputs:int -> ?seed:int64 -> unit -> t5_row list

val minimal_inputs :
  ?max_inputs:int -> seed:int64 -> Contract.t -> Target.t -> Gadgets.t ->
  int option
(** Smallest prefix of a random input sequence that surfaces a violation. *)

(** {1 §6.4 — speculative-store-eviction assumption} *)

type store_eviction_result = {
  cpu_name : string;
  violated : bool;
  label : string option;
}

val store_eviction_check : ?seed:int64 -> unit -> store_eviction_result list
(** The §6.4 gadget against CT-COND(noSpecStore) on Skylake and Coffee
    Lake under plain Prime+Probe. *)

(** {1 §6.6 — contract sensitivity (STT)} *)

val contract_sensitivity :
  ?seed:int64 -> unit -> (string * string * bool) list
(** (gadget, contract, violated) for Fig. 6a/6b × CT-SEQ/ARCH-SEQ. *)

(** {1 §A.5.3 — fuzzing throughput} *)

type throughput = {
  seconds : float;
  test_cases : int;
  inputs : int;
  cases_per_hour : float;
}

val throughput : ?test_cases:int -> ?seed:int64 -> unit -> throughput
(** Fuzz a non-detecting configuration (Target 1 × CT-SEQ) for
    [test_cases] test cases (default 8000) and report the processing
    rate. The counts are a function of [test_cases] and [seed]; only the
    seconds and the rate depend on the host. *)

(** {1 Port-contention channel (extension, §7 future work)} *)

val port_channel_demo : ?seed:int64 -> unit -> (string * string * bool) list
(** (gadget, channel, violated): the memory-free V1 gadget is invisible to
    Prime+Probe but detected by the port-contention channel. *)

(** {1 Ablations (DESIGN.md §5)} *)

type ablation = {
  name : string;
  with_feature : string;  (** outcome with the design feature enabled *)
  without_feature : string;  (** outcome with it disabled *)
  conclusion : string;
}

val ablation_priming : ?seed:int64 -> unit -> ablation
(** Priming vs cold microarchitectural state per input (V1 detection). *)

val ablation_entropy : ?seed:int64 -> unit -> (int * float) list
(** Input-entropy bits vs input effectiveness (fraction of inputs in
    multi-member classes), on generated test cases. *)

val ablation_noise_filtering : ?seed:int64 -> unit -> ablation
(** Trace union + outlier discard vs single noisy measurement: false
    violations on a compliant target under injected noise. *)

val ablation_equivalence : ?seed:int64 -> unit -> ablation
(** Subset-relation vs strict trace equality: false positives from
    inconsistent speculation (V1 gadget under CT-COND). *)

val ablation_swap_check : ?seed:int64 -> unit -> ablation
(** The priming swap check vs none: a purely context-dependent divergence
    must be dismissed. *)

val ablation_feedback : ?seed:int64 -> unit -> ablation
(** Diversity-guided growth vs fixed-size generation: detection when the
    initial configuration is too small to express the leak. *)

val ablation_speculation_window : ?seed:int64 -> unit -> (int * bool) list
(** Contract speculation window vs. violation of CT-COND by the V1 gadget:
    a window shorter than the hardware's transient reach makes even a
    COND contract report violations, because the model under-approximates
    the permitted leakage (footnote 3 of the paper sizes the window to
    the ROB for this reason). *)
