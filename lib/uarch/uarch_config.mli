(** Microarchitecture configuration: the knobs that distinguish the CPUs of
    Table 2 and their patches, plus the latency model that drives the
    dataflow-timing engine. *)

type latencies = {
  alu : int;
  mul : int;
  load_hit : int;
  load_miss : int;
  agu : int;  (** address generation *)
  branch_resolve : int;  (** added to flag readiness *)
  div_base : int;
  div_per_nibble : int;
      (** the operand-dependent part: cycles per significant nibble of the
          dividend — the variable-latency property exploited by the
          V1-var/V4-var leaks of §6.3 *)
  assist : int;  (** microcode-assist resolution latency *)
}

type t = {
  name : string;
  rob_size : int;  (** bounds the transient window, in instructions *)
  fetch_width : int;  (** instructions fetched per cycle *)
  pht_size : int;
  btb_size : int;
  rsb_depth : int;
  v4_patch : bool;  (** SSBD microcode patch: no speculative store bypass *)
  mds_patch : bool;  (** fill buffers cleared: assisted loads forward zeros *)
  assist_forwarding_leak : bool;
      (** whether an assisted store breaks store-to-load forwarding so that
          younger same-address loads transiently observe stale memory (the
          LVI-class leak surfaced on MDS-patched parts) *)
  speculative_store_eviction : bool;
      (** whether stores modify the cache before retiring (§6.4: holds on
          Coffee Lake, not on Skylake) *)
  lat : latencies;
}

val skylake : v4_patch:bool -> t
(** Intel Core i7-6700 model: vulnerable to MDS; stores modify the cache
    only at retirement. *)

val coffee_lake : t
(** Intel Core i7-9700 model: hardware MDS patch (with the LVI-Null
    forwarding leak), V4 patch on, and speculative store eviction. *)

val div_latency : t -> dividend:int64 -> int
(** Operand-dependent division latency. *)

val mem_latency : t -> hit:bool -> int
