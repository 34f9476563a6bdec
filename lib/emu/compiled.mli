open Revizor_isa

(** Decode-once compiled programs.

    A fuzzing campaign executes each flat program hundreds of times (model
    pass, nesting re-check, warm-up, measurement repetitions, swap-check
    re-measurements over the whole input sequence), and the interpreted
    path re-derives per-instruction metadata on every step. {!of_flat}
    performs that decoding once, producing per-instruction {!desc}
    metadata plus the semantic action compiled to a closure (threaded-code
    style), so a step is one indirect call instead of a match cascade.

    Execution through a compiled program's {!raws} is bit-identical to
    {!Semantics.step}: same state mutation, same memory-access records in
    the same order, same faults at the same points. {!of_flat} also runs
    an observation-liveness analysis: {!fused} and {!dead_len} let an
    engine skip the values no contract trace or cache observation can
    read, keeping memory, pc, every access, every fault and every value
    an observation reads exact. {!interpreted} builds the same
    descriptors but routes the action through [Semantics.step] and skips
    nothing — the reference for differential testing and for ruling the
    compiler itself out of a result.

    Values of type {!t} are immutable after construction and the action
    closures keep no shared mutable scratch, so one compiled program is
    safely shared read-only across domains. *)

type abuf = {
  mutable ab_len : int;
  mutable ab_store : bool array;
  mutable ab_addr : Bytes.t;  (** 8 bytes per entry; read with {!abuf_addr} *)
  mutable ab_width : Width.t array;
  mutable ab_value : Bytes.t;  (** 8 bytes per entry; read with {!abuf_value} *)
}
(** Reusable, caller-owned memory-access buffer. Raw actions append the
    accesses of one instruction (in occurrence order, [`Store] entries
    flagged in [ab_store]); batched walkers accumulate a whole fused
    block before consuming entries [0 .. ab_len-1]. Entries of a faulting
    instruction may be partially present — consumers must truncate to the
    mark taken before the instruction (see {!abuf_accesses}). Addresses
    and values are kept as bytes, so recording an access stores the
    numbers in place instead of a pointer to a fresh box. *)

type raw = State.t -> abuf -> unit
(** Allocation-free semantic action: mutates the state (including pc) and
    appends memory accesses to the buffer. Raises exactly what
    {!Semantics.step} raises, at the same points, with the same partial
    state mutation. *)

type lat_class =
  | Lat_alu
  | Lat_mul
  | Lat_div  (** latency is dividend-dependent; resolved by the uarch layer *)
  | Lat_branch

type mem_ref = {
  mr_width : Width.t;
  mr_base : int;  (** {!Reg.index} of the base register, or -1 *)
  mr_index : int;  (** {!Reg.index} of the index register, or -1 *)
  mr_base_at : int;
      (** {!State.reg_offset} of the base register, or 0 without one *)
  mr_base_mask : int;  (** -1 with a base register, 0 without *)
  mr_index_at : int;
      (** {!State.reg_offset} of the index register, or 0 without one *)
  mr_scale : int;  (** the index's scale, 0 without an index register *)
  mr_disp : int;
  mr_mask : int64;  (** [Width.mask mr_width] *)
}
(** A memory operand as data: what {!mem_addr} computes the effective
    address from, and the access width. *)

val mem_addr : State.t -> mem_ref -> int64
(** The effective address in [state]: [(base + index * scale) + disp]
    over wrapping [int64], an absent register counting 0 — associatively
    {!Semantics.mem_addr}. Inline and branch-free, so the result stays
    unboxed in its caller. *)

type desc = {
  d_inst : Instruction.t;
  d_serializing : bool;
  d_control_flow : bool;
  d_loads : bool;
  d_stores : bool;
  d_reads_flags : bool;
  d_writes_flags : bool;
  d_cond : Cond.t option;  (** [Some c] iff the instruction is [Jcc c] *)
  d_srcs : int array;  (** {!Reg.index} of every register read *)
  d_dsts : int array;  (** {!Reg.index} of every register written *)
  d_ports : int array;  (** one entry per µop, cf. {!Ports.of_instruction} *)
  d_lat : lat_class;
  d_div_width : Width.t;  (** operand width of a division (else [W64]) *)
  d_mem : mem_ref option;  (** first memory operand, pre-resolved *)
}

type plan = private {
  plain_len : int array;
      (** length of the maximal timing-plain run starting at each pc: no
          memory operand, no control flow, not serializing, not DIV/IDIV *)
  plain_ports : int array;
      (** the ports timing-plain instructions issue µops on, ascending *)
  port_sums : int array;
      (** per-port µop suffix sums over {!plain_ports},
          [(length + 1) * k] entries for [k] ports:
          [port_sums.(pc * k + j)] counts the µops on port
          [plain_ports.(j)] of the instructions [pc .. length - 1]; the
          instructions [a .. b - 1] issue the difference of the sums at
          [a] and [b] *)
}
(** The CPU simulator's timing plan: what is fixed per test case about
    timing a straight-line run that touches no memory. {!interpreted}
    programs carry the empty plan (all arrays empty): no pc starts a
    timing-plain run. Immutable after construction. *)

type t = private {
  flat : Program.flat;
  descs : desc array;
  raws : raw array;
      (** allocation-free semantic actions, one per pc; each leaves the
          whole state as {!Semantics.step} does *)
  fused : raw array;
      (** at each pc, {!raws}, or its variant that does not compute the
          flag word where no observer reads the flag word the pc writes
          (on any path from it: a flag reader, or an INC/DEC, shift or
          rotate, which merge into it, before a full overwrite). The
          variant's registers, memory, accesses and faults are {!raws}'s. *)
  dead_len : int array;
      (** the length of the stretch of dead pcs starting at each pc, 0
          at a live one. A dead pc is register-only and cannot fault,
          and no address, branch, division or store reads any register
          or flag word it writes, on any path from it; so an engine
          that skips it (pc advancing by one) computes every value an
          observation reads exactly. Liveness after a pc depends only on
          the code after it, so this holds wherever execution enters the
          program: a speculative exploration, a transient episode. An
          engine may skip dead pcs and run {!fused} at the others. *)
  run_len : int array;
      (** length of the maximal straight-line run starting at each pc
          (no control flow, no serializing instruction) *)
  nostore_len : int array;
      (** like [run_len] but 0 at stores, for store-bypass contracts *)
  plan : plan;  (** built once here, shared by every run of the program *)
}

val abuf_create : unit -> abuf
val abuf_clear : abuf -> unit

val abuf_addr : abuf -> int -> int64
(** [abuf_addr ab k] is the address of entry [k] ([k < ab_len]). Inlined
    into its caller, so the value stays unboxed there. *)

val abuf_value : abuf -> int -> int64
(** [abuf_value ab k] is the value entry [k] loaded or stored. *)

val abuf_accesses : abuf -> Semantics.access list
(** Materialize entries [0 .. ab_len-1] as an access list, in occurrence
    order. Cold-path only (contract stream recording). *)

val of_flat : Program.flat -> t
(** Compile every instruction to a specialised closure, and run the
    straight-line, liveness and timing analyses. *)

val interpreted : Program.flat -> t
(** Same descriptors, but every action defers to {!Semantics.step}:
    [of_actions] over [Semantics.step] — the reference engine for
    differential tests. *)

val of_actions : Program.flat -> raw array -> t
(** [of_actions flat actions] runs [actions.(pc)] at each pc, in {!raws}
    and {!fused} alike, and skips nothing ({!dead_len} all 0); the plan
    is empty, so the CPU simulator takes its per-instruction path at
    every step. Tests build variants of {!interpreted} with it. *)

val of_program_exn : Program.t -> t
val length : t -> int
val code : t -> Instruction.t array
val target : t -> int -> int
(** Static branch target of the instruction at the given pc. *)
