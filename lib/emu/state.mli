open Revizor_isa

(** Architectural machine state: register file, status flags, sandbox
    memory and program counter (an index into the flattened program). *)

type t = {
  regs : Bytes.t;
      (** 16 registers × 8 bytes, in {!Reg.index} order; read and written
          only through the accessors below *)
  mutable flags : Flags.t;
  mem : Memory.t;
  mutable pc : int;
}

val create : unit -> t
(** Fresh state: registers zero except R14 = sandbox base and
    RSP = stack top; empty flags; zeroed memory; pc = 0. *)

val get_reg : t -> Reg.t -> Width.t -> int64
(** Zero-extended read of the register at the given width. *)

val set_reg : t -> Reg.t -> Width.t -> int64 -> unit
(** x86 merge semantics (32-bit writes zero the upper half). *)

(** {1 Registers by offset}

    The compiled engine resolves each register operand to its byte
    offset once, when it compiles the instruction, and then reads and
    writes the full 64-bit register at that offset. Both accessors
    inline to one unboxed load or store, so a step that keeps its
    values in locals allocates nothing. *)

val reg_offset : Reg.t -> int
(** Byte offset of a register in [regs]. *)

val get_at : t -> int -> int64
(** [get_at t (reg_offset r)] is the full 64-bit value of [r]. Unchecked:
    the offset must come from {!reg_offset}. *)

val set_at : t -> int -> int64 -> unit
(** [set_at t (reg_offset r) v] sets all 64 bits of [r] to [v]. Unchecked
    like {!get_at}. *)

val copy : t -> t

val copy_into : t -> dst:t -> unit
(** Overwrite [dst] with [src] (registers, flags, memory, pc) without
    allocating: blits into [dst]'s existing buffers. Not journaled: do
    not use it on a state with an open {!save}. *)

(** {1 Run and undo in place}

    The model and the executor run every input directly on its template
    state and then hand the template back unchanged; speculative
    explorations and transient episodes inside a run roll back the same
    way. {!save} records registers, flags and pc in a caller-owned slot
    and opens a level of the memory's store-undo journal
    ({!Memory.journal_begin}); {!undo} puts all of it back. Saves nest,
    each with a slot of its own: an inner {!undo} leaves the enclosing
    save recording. *)

type slot
(** Caller-owned save buffer: the 128 register bytes, flags, pc and a
    journal mark. Reused across saves, so a save allocates nothing. *)

val slot : unit -> slot

val save : t -> slot -> unit
(** Save registers, flags and pc into the slot and open a journal level:
    every later store records the bytes it overwrites. *)

val undo : t -> slot -> unit
(** Restore exactly the state seen at the matching {!save}: memory by
    replaying the journal back to the slot's mark, registers, flags and
    pc from the slot. Closes the level. Every {!save} needs its {!undo},
    on the exception path too. *)

val equal_arch : t -> t -> bool
(** Equality of registers, flags and memory (pc ignored). *)

val pp : Format.formatter -> t -> unit
(** Registers of the generator pool, flags and pc (diagnostics). *)
