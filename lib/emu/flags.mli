open Revizor_isa

(** The x86 status flags and their update rules.

    Update rules follow the Intel SDM. Where the SDM leaves a flag
    undefined (AF after logic ops and shifts, all flags after DIV), we pick
    a fixed deterministic value so that the contract model and the hardware
    simulator can never diverge on "undefined" state.

    A flag word is an immediate int in RFLAGS layout (CF = bit 0, PF = 2,
    AF = 4, ZF = 6, SF = 7, OF = 11; every other bit 0): storing one in a
    state allocates nothing, and the update rules build it directly. *)

type t [@@immediate]

val empty : t
(** All six flags clear. *)

val make : cf:bool -> pf:bool -> af:bool -> zf:bool -> sf:bool -> o_f:bool -> t

val cf : t -> bool
(** carry *)

val pf : t -> bool
(** parity (of the low result byte) *)

val af : t -> bool
(** auxiliary carry (nibble) *)

val zf : t -> bool
(** zero *)

val sf : t -> bool
(** sign *)

val o_f : t -> bool
(** overflow ([of] is a keyword) *)

val eval_cond : t -> Cond.t -> bool

val to_word : t -> int64
(** The RFLAGS bits (CF=0, PF=2, AF=4, ZF=6, SF=7, OF=11). *)

val of_word : int64 -> t
(** Keeps the six status bits of an RFLAGS word; every other bit is
    dropped. *)

(** {1 Update rules}

    [a] and [b] are the operand values truncated to the width; [r] is the
    truncated result. *)

val after_add : Width.t -> a:int64 -> b:int64 -> carry_in:bool -> r:int64 -> t
val after_sub : Width.t -> a:int64 -> b:int64 -> borrow_in:bool -> r:int64 -> t

val after_logic : Width.t -> r:int64 -> t
(** AND/OR/XOR/TEST: CF = OF = AF = 0. *)

val after_inc : Width.t -> t -> a:int64 -> r:int64 -> t
(** INC/DEC preserve CF. [a] is the pre-increment value. *)

val after_dec : Width.t -> t -> a:int64 -> r:int64 -> t

val after_neg : Width.t -> a:int64 -> r:int64 -> t

val after_imul : Width.t -> full_overflow:bool -> r:int64 -> t
(** CF = OF = whether the full product did not fit the destination. *)

val after_shift :
  Width.t -> t -> op:[ `Shl | `Shr | `Sar ] -> a:int64 -> count:int -> r:int64 -> t
(** Shifts with a zero (masked) count leave flags untouched. *)

val after_rotate :
  Width.t -> t -> op:[ `Rol | `Ror ] -> count:int -> r:int64 -> t
(** Rotates update only CF and OF; a zero (masked) count leaves flags
    untouched. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
