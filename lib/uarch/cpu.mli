open Revizor_emu

(** The simulated CPU under test.

    This is the repository's stand-in for the black-box silicon of the
    paper (see DESIGN.md §2): a dataflow-timing engine that executes a
    program architecturally while modelling the transient behaviour of an
    out-of-order speculative core. Transient execution leaves traces in
    the {!Cache.t}, which the measurement layer observes exactly as a
    cache side-channel attack would.

    Modelled leak mechanisms:
    - conditional-branch misprediction (PHT-driven) — Spectre V1;
    - speculative store bypass when a store's address resolves late —
      Spectre V4 (disabled by the V4/SSBD patch);
    - return- and indirect-target misprediction (RSB/BTB) — ret2spec / V2;
    - microcode-assisted loads transiently forwarding stale fill-buffer
      data — MDS (zeros when the MDS patch is present);
    - microcode-assisted stores breaking store-to-load forwarding — the
      LVI-class leak on MDS-patched parts;
    - the dataflow timing model gates every transient cache touch on the
      access's address being ready before the squash, which reproduces the
      variable-latency races of §6.3 (V1-var, V4-var).

    The predictors and the cache persist across {!run} calls; this is what
    makes the paper's priming technique (§5.3) meaningful. *)

type t

(** Why a transient episode happened — used only for post-hoc labelling of
    violations (the analyzer itself never looks at this: detection stays
    black-box). *)
type speculation_kind =
  | Branch_mispredict
  | Return_mispredict
  | Indirect_mispredict
  | Store_bypass
  | Assist_load_forward
  | Assist_store_forward

type event = {
  kind : speculation_kind;
  origin_pc : int;  (** instruction that triggered the speculation *)
  transient_loads : int;  (** transient memory accesses that executed *)
  touched_sets : int list;  (** cache sets touched transiently *)
}

val create : Uarch_config.t -> t
val cache : t -> Cache.t
val pages : t -> Page_table.t

val reset_session : t -> unit
(** Forget all microarchitectural state: predictors, cache, fill buffer,
    page bits. Used between test cases. *)

val fill_buffer : t -> int64

val set_fill_buffer : t -> int64 -> unit
(** Model the data movement of loading an input into the sandbox: on real
    hardware the executor's input-setup writes leave the victim's own data
    in the fill buffers, which is what MDS-class assists then leak. The
    executor calls this after materializing each input. *)

val run : ?max_steps:int -> t -> Compiled.t -> State.t -> unit
(** Execute the compiled program to completion, or for [max_steps]
    architectural steps (default 20000). On return the architectural
    state is exactly what {!Semantics.run} would produce; the
    microarchitectural state (cache, predictors, fill buffer)
    additionally reflects both the committed and the transient behaviour.
    All per-instruction metadata (register indices, ports, latency class,
    memory accessor) comes from the precomputed {!Compiled.desc}s.

    Each timing-plain run of the program's {!Compiled.plan} (no memory
    operand, no control flow, not serializing, not DIV/IDIV) executes in
    one loop: port counts are added from the plan's suffix sums, and the
    semantic steps are the plan's [plain_steps]. Every other step —
    memory, branch, DIV, serializing, every transient-episode step, and
    every step of an {!Compiled.interpreted} program, whose plan is empty
    — takes the per-instruction path, the reference the loop is tested
    against. Both give bit-identical traces, events, port counts and
    states.

    @raise Semantics.Division_fault, Memory.Fault as the emulator does. *)

type footprint
(** The predictor entries a program can reach: the PHT counters at its
    Jcc pcs, the BTB entries at its indirect-jump pcs, and the whole RSB
    if it has a CALL or RET. {!run} reads and writes predictors only on
    its architectural path and only there. The cache, fill buffer and
    page bits are deliberately absent: within a measurement session the
    executor re-establishes them canonically before every run (cache
    priming, per-input fill-buffer load, assist-bit clearing). So within
    a session a run of a given input is a pure function of the
    footprint's contents, and leaves every predictor entry outside the
    footprint untouched — what the executor's measurement memo relies on
    to replay a run instead of simulating it. *)

val footprint : Compiled.t -> footprint

type snapshot
(** The contents of a footprint at one instant. *)

val snapshot : t -> footprint -> snapshot

val matches : t -> footprint -> snapshot -> bool
(** Whether the footprint's current contents equal the snapshot
    (allocation-free, unlike comparing a fresh {!snapshot}). *)

val install : t -> footprint -> snapshot -> unit
(** Write the snapshot back into the footprint's entries. Installing the
    snapshot taken after a run, in place of re-running it from a
    matching pre-run state, leaves the predictors exactly as the run
    would have. *)

val events : t -> event list
(** Speculation episodes of the most recent {!run}, in execution order. *)

val port_counts : t -> int array
(** µops issued per execution port during the most recent {!run},
    including transient µops that beat the squash — the observable of the
    port-contention channel (extension, cf. §7). *)

val all_kinds : speculation_kind list
(** Every mechanism, in declaration order (coverage enumerations). *)

val kind_to_string : speculation_kind -> string

val kind_of_string : string -> speculation_kind option
(** Inverse of {!kind_to_string}. *)
