(** Microarchitecture configuration.

    A preset names a CPU of Table 2 by what those CPUs differ in: their
    patches and leak mechanisms, the four switches of {!t}. The rest of
    the simulated core is the same on every preset and fixed here: the
    ROB size, the fetch width and the latency model of the
    dataflow-timing engine. The predictors' sizes are {!Predictors}'
    defaults: a 512-entry PHT, a 256-entry BTB and a 16-deep RSB. *)

type t = {
  name : string;
  v4_patch : bool;  (** SSBD microcode patch: no speculative store bypass *)
  mds_patch : bool;  (** fill buffers cleared: assisted loads forward zeros *)
  assist_forwarding_leak : bool;
      (** whether an assisted store breaks store-to-load forwarding so that
          younger same-address loads transiently observe stale memory (the
          LVI-class leak surfaced on MDS-patched parts) *)
  speculative_store_eviction : bool;
      (** whether stores modify the cache before retiring (§6.4: holds on
          Coffee Lake, not on Skylake) *)
}

val skylake : v4_patch:bool -> t
(** Intel Core i7-6700 model: vulnerable to MDS; stores modify the cache
    only at retirement. *)

val coffee_lake : t
(** Intel Core i7-9700 model: hardware MDS patch (with the LVI-Null
    forwarding leak), V4 patch on, and speculative store eviction. *)

(** {1 The fixed core} *)

val rob_size : int
(** 224 instructions: the longest transient episode. *)

val fetch_width : int
(** 4 instructions fetched per cycle. *)

(** {2 Latencies, in cycles} *)

val alu_latency : int
(** 1: every instruction of no other class below. *)

val mul_latency : int
(** 3: IMUL. *)

val agu_latency : int
(** 1: address generation, after the base and index registers are
    ready. *)

val branch_latency : int
(** 1: control flow; a Jcc resolves this long after its fetch or its
    flags, whichever is later, a RET or an indirect jump this long after
    it starts (a RET also waits for its stack read). *)

val assist_latency : int
(** 30: a microcode assist's resolution, added to the assisted access. *)

val div_base_latency : int
(** 10: a division's fixed part. *)

val div_nibble_latency : int
(** 4: a division's cycles per significant nibble of the dividend — the
    variable-latency property exploited by the V1-var/V4-var leaks of
    §6.3. *)

val div_latency : dividend:int64 -> int
(** Operand-dependent division latency:
    [div_base_latency + div_nibble_latency * significant nibbles]. *)

val mem_latency : hit:bool -> int
(** A load's memory latency: 4 on an L1D hit, 50 on a miss. *)
