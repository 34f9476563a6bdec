(** Simulated side-channel measurement (§5.3).

    Each observation wraps one execution of the test case in the
    prepare/probe phases of a cache attack on the simulated L1D:

    - {b Prime+Probe}: fill every set with attacker lines, run, report the
      sets where an attacker line was evicted (granularity: 64 sets);
    - {b Flush+Reload}: flush the monitored sandbox lines, run, report the
      lines now present (granularity: 128 lines over two data pages);
    - {b Evict+Reload}: like Flush+Reload but eviction-based preparation.

    The [*+Assist] threat models additionally clear the Accessed bit of
    sandbox page 0 before the run, so the first access to it triggers a
    microcode assist (§5.3). *)

type mode =
  | Prime_probe
  | Flush_reload
  | Evict_reload
  | Port_contention
      (** extension (§7 future work): observe bucketized per-port µop
          counts, like an SMT sibling measuring its own slowdown — sees
          transient execution even when it makes no memory access *)

type threat = {
  mode : mode;
  assist : bool;
      (** whether each observation first clears the Accessed bit of page
          0, where generated single-page test cases access *)
}

val prime_probe : threat
val prime_probe_assist : threat

val flush_reload : threat
val evict_reload : threat
val port_contention : threat

val threat_to_string : threat -> string

val observe : Cpu.t -> threat -> (unit -> unit) -> Htrace.t
(** [observe cpu threat run] prepares the channel, invokes [run] (which
    must execute the test case on [cpu]), and probes. Exceptions from
    [run] propagate after the microarchitectural state is left as-is. *)

val trace_domain : mode -> int
(** Number of distinct observation indices (64 or 128). *)
