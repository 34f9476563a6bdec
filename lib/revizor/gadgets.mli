open Revizor_isa

(** Hand-written test cases: the known-vulnerability gadgets used for
    Table 5 ("detection of known vulnerabilities on manually-written test
    cases"), the paper's figures, and the §6.6 contract-sensitivity
    experiment. Each is a valid {!Program.t} that exercises one leak
    mechanism of the simulated CPU. *)

type t = {
  name : string;
  description : string;
  program : Program.t;
  needs_assist : bool;  (** requires the [*+Assist] threat model *)
  reference : string;  (** the paper's citation tag, e.g. "[23]" *)
}

val spectre_v1 : t
(** Figure 1 / classic bounds-check bypass: a mispredicted conditional
    branch transiently executes an input-addressed load. *)

val spectre_v1_taken : t
(** V1 with the leak on the taken side: invisible to a cold predictor,
    exposed only by priming (used by the priming ablation). *)

val spectre_v1_1 : t
(** Speculative buffer overflow (Kiriansky & Waldspurger): the transient
    path contains a store whose address leaks via a subsequent load. *)

val spectre_v2 : t
(** Branch target injection (extension beyond the paper's evaluation):
    indirect-jump target misprediction through the BTB. *)

val spectre_v1_ports : t
(** V1 with a memory-free transient path (a multiply chain): invisible to
    cache channels, detectable through port contention (extension). *)

val spectre_v4 : t
(** Speculative store bypass: a store with a slowly-resolving address is
    bypassed by a younger same-address load, exposing the stale value. *)

val spectre_v1_var : t
(** §6.3 (Fig 5): two division-gated transient loads race the branch
    resolution; the hardware trace exposes the operand-dependent division
    latencies — a violation even of CT-COND. *)

val spectre_v4_var : t
(** §6.3: the store-bypass analogue of the latency race — two store/load
    pairs whose bypass occurrence depends on division latency; violates
    CT-BPAS. *)

val ret2spec : t
(** Return-address misprediction: the return address is overwritten in
    memory, so the RSB-predicted return target executes transiently. *)

val mds_lfb : t
(** MDS / RIDL-style: a load fills the fill buffer with the input's data;
    an assisted load in another page transiently forwards it. *)

val mds_sb : t
(** MDS / Fallout-style: the fill-buffer data comes from a store. *)

val lvi_null : t
(** LVI-class: an assisted store breaks store-to-load forwarding, so a
    younger same-address load transiently reads stale memory. *)

val stt_nonspeculative : t
(** Figure 6a: a {e non}-speculatively loaded value leaks on a transient
    path. Violates CT-SEQ but complies with ARCH-SEQ. *)

val stt_speculative : t
(** Figure 6b: a {e speculatively} loaded value leaks. Violates both
    CT-SEQ and ARCH-SEQ. *)

val spec_store_eviction : t
(** §6.4: a transient store on a mispredicted path; leaks only on CPUs
    where speculative stores modify the cache (Coffee Lake). *)

val table5 : t list
(** The gadget set of Table 5, in the paper's column order. *)

val all : t list
val find : string -> t option
