open Revizor_uarch

(** The relational analyzer (§4, §5.5).

    Inputs are partitioned into classes by contract-trace equality;
    singleton ("ineffective") classes are discarded. Within each class,
    hardware traces must be pairwise {e comparable} (one a subset of the
    other — the union-of-contexts relaxation of equality); an incomparable
    pair is a counterexample to contract compliance. *)

type input_class = {
  ctrace : Ctrace.t;
  members : int list;  (** indices into the input list, ascending *)
}

type candidate = {
  cls : input_class;
  index_a : int;
  index_b : int;  (** the incomparable pair (indices into the inputs) *)
  htrace_a : Htrace.t;
  htrace_b : Htrace.t;
}

val input_classes : Ctrace.t array -> input_class list
(** Classes with at least two members, in order of first appearance.
    Also feeds the [analyzer.class_size] histogram and class counters of
    the metrics registry (singletons included in the histogram). *)

val record_htraces : Htrace.t array -> unit
(** Observe each trace's cardinality into the [analyzer.htrace_density]
    histogram — called by the fuzzer once per measured test case, so the
    distribution is not skewed by swap-check re-measurements. *)

val effective_inputs : input_class list -> int
(** Total number of inputs that belong to a multi-member class. *)

val check_class :
  ?equivalence:[ `Subset | `Equal ] ->
  ?excluding:(int * int) list ->
  input_class ->
  Htrace.t array ->
  (int * int) option
(** First pair of members with inequivalent hardware traces. The default
    [`Subset] equivalence is the paper's relaxation; [`Equal] (strict
    equality) exists for the ablation study — it reports false positives
    whenever speculation executes inconsistently across contexts. *)

val find_violation :
  ?equivalence:[ `Subset | `Equal ] ->
  ?excluding:(int * int) list ->
  input_class list ->
  Htrace.t array ->
  candidate option
(** [excluding] skips pairs already dismissed as priming artifacts, so the
    caller can look for further independent divergences. *)
