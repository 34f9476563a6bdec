open Revizor_isa

(** Decode-once compiled programs.

    A fuzzing campaign executes each flat program hundreds of times (model
    pass, nesting re-check, warm-up, measurement repetitions, swap-check
    re-measurements over the whole input sequence), and the interpreted
    path re-derives per-instruction metadata on every step. {!of_flat}
    performs that decoding once, producing per-instruction {!desc}
    metadata plus the semantic action compiled to a closure (threaded-code
    style), so a step is one indirect call instead of a match cascade.

    Execution through a compiled program is bit-identical to
    {!Semantics.step}: same state mutation, same memory-access records in
    the same order, same faults at the same points. {!interpreted} builds
    the same descriptors but routes the action through [Semantics.step] —
    the reference for differential testing and for ruling the compiler
    itself out of a result.

    Values of type {!t} are immutable after construction and the action
    closures keep no shared mutable scratch, so one compiled program is
    safely shared read-only across domains. *)

type abuf = {
  mutable ab_len : int;
  mutable ab_store : bool array;
  mutable ab_addr : int64 array;
  mutable ab_width : Width.t array;
  mutable ab_value : int64 array;
}
(** Reusable, caller-owned memory-access buffer. Raw actions append the
    accesses of one instruction (in occurrence order, [`Store] entries
    flagged in [ab_store]); batched walkers accumulate a whole fused
    block before consuming entries [0 .. ab_len-1]. Entries of a faulting
    instruction may be partially present — consumers must truncate to the
    mark taken before the instruction (see {!abuf_accesses}). *)

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
  mr_addr : State.t -> int64;  (** pre-resolved effective address *)
  mr_base : int;  (** {!Reg.index} of the base register, or -1 *)
  mr_index : int;  (** {!Reg.index} of the index register, or -1 *)
}

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
  plain_steps : raw array;
      (** the action to run at each timing-plain pc: {!fused} where the
          elided flag write is overwritten inside the same timing-plain
          run, {!raws} otherwise. A timing-plain run executed whole with
          these leaves exactly the flags {!raws} would. *)
}
(** The CPU simulator's timing plan: what is fixed per test case about
    timing a straight-line run that touches no memory. {!interpreted}
    programs carry the empty plan (all arrays empty): no pc starts a
    timing-plain run. Immutable after construction. *)

type t = private {
  flat : Program.flat;
  descs : desc array;
  actions : (State.t -> Semantics.outcome) array;
      (** legacy outcome-returning actions, layered over {!raws} *)
  raws : raw array;  (** primary allocation-free actions *)
  fused : raw array;
      (** {!raws} with provably-dead flag computation elided; only safe
          inside batched walks whose final flag word is never observed *)
  run_len : int array;
      (** length of the maximal straight-line run starting at each pc
          (no control flow, no serializing instruction) *)
  nostore_len : int array;
      (** like [run_len] but 0 at stores, for store-bypass contracts *)
  plan : plan;  (** built once here, shared by every run of the program *)
}

val abuf_create : unit -> abuf
val abuf_clear : abuf -> unit

val abuf_accesses : abuf -> Semantics.access list
(** Materialize entries [0 .. ab_len-1] as an access list, in occurrence
    order. Cold-path only (legacy outcomes, contract stream recording). *)

val of_flat : Program.flat -> t
(** Compile every instruction to a specialised closure. *)

val interpreted : Program.flat -> t
(** Same descriptors, but every action defers to {!Semantics.step} and
    the plan is empty — the reference engine for differential tests. *)

val of_program : Program.t -> (t, string) result
val of_program_exn : Program.t -> t
val length : t -> int
val code : t -> Instruction.t array
val target : t -> int -> int
(** Static branch target of the instruction at the given pc. *)

val step : t -> State.t -> Semantics.outcome
(** Execute the instruction at [state.pc]. Raises exactly what
    {!Semantics.step} raises, at the same points, with the same partial
    state mutation. *)

val run : ?max_steps:int -> t -> State.t -> Semantics.outcome list
(** Compiled analogue of {!Semantics.run}. *)
