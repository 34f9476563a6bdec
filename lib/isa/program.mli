(** Test-case programs: a sequence of labelled basic blocks whose control
    flow forms a DAG (the generator never creates loops, §5.1).

    A block falls through to the next block unless its last instruction is
    an unconditional control transfer. The {!flatten} form — a flat
    instruction array with resolved branch targets — is what both the
    contract model and the hardware simulator execute. *)

type block = { label : string; insts : Instruction.t list }
type t = { blocks : block list }

val make : block list -> t
val block : string -> Instruction.t list -> block

val of_insts : Instruction.t list -> t
(** Single-block program labelled ["bb0"]. *)

val num_insts : t -> int
val num_blocks : t -> int

val instructions : t -> Instruction.t list
(** All instructions in layout order. *)

val map_insts : (Instruction.t -> Instruction.t list) -> t -> t
(** Rewrite every instruction into zero or more instructions, preserving
    block structure (used by instrumentation and minimization passes). *)

(** {1 Flat form} *)

type flat = {
  code : Instruction.t array;  (** instructions in layout order *)
  target : int array;
      (** [target.(i)] is the resolved index of instruction [i]'s label
          target, or [-1] *)
  block_starts : (string * int) list;  (** label -> first instruction index *)
}

val flatten : t -> (flat, string) result
(** Resolve labels. Fails on duplicate or undefined labels. A branch to the
    end of the program is represented by the index [Array.length code]. *)

val flatten_exn : t -> flat

(** {1 Validation} *)

val validate : t -> (unit, string) result
(** Labels resolve, every instruction's operand shape is accepted, and the
    control flow of label targets is forward-only (DAG). Indirect jumps and
    RET are exempt from the DAG check (their targets are dynamic). *)

val pp : Format.formatter -> t -> unit
(** Assembly listing with [.label:] markers. *)

val to_string : t -> string
