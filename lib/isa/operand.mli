(** Instruction operands.

    Memory operands follow the x86 [base + index*scale + disp] addressing
    form. Generated test cases use the sandboxed form
    [\[R14 + reg\]] exclusively (the instrumentation pass guarantees the
    index register is masked beforehand), but hand-written gadgets may use
    the full form. *)

type mem = {
  base : Reg.t option;
  index : Reg.t option;
  scale : int;  (** 1, 2, 4 or 8 *)
  disp : int;
}

type t =
  | Reg of Reg.t * Width.t
  | Imm of int64
  | Mem of mem * Width.t  (** the width is the width of the access *)

val reg : ?w:Width.t -> Reg.t -> t
(** Register operand, 64-bit by default. *)

val imm : int -> t
val imm64 : int64 -> t

val mem :
  ?w:Width.t -> ?base:Reg.t -> ?index:Reg.t -> ?scale:int -> ?disp:int -> unit -> t
(** Memory operand, 64-bit access by default.
    @raise Invalid_argument on a scale other than 1, 2, 4 or 8. *)

val sandbox : ?w:Width.t -> ?disp:int -> Reg.t -> t
(** [sandbox idx] is [\[R14 + idx (+ disp)\]], the canonical generated form. *)

val width : t -> Width.t option
(** Access width of a register or memory operand; [None] for immediates. *)

val is_mem : t -> bool

val regs_read : t -> Reg.t list
(** Registers whose values this operand reads when used as a source
    (includes address registers of memory operands). *)

val pp : Format.formatter -> t -> unit
(** Intel syntax, e.g. [qword ptr \[R14 + RAX*2 + 8\]]. *)
