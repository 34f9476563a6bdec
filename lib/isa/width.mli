(** Operand widths of the modelled x86-64 subset. *)

type t = W8 | W16 | W32 | W64

val bits : t -> int
(** Number of bits: 8, 16, 32 or 64. *)

val bytes : t -> int
(** Number of bytes: 1, 2, 4 or 8. *)

val mask : t -> int64
(** All-ones mask of the width, e.g. [0xFFL] for {!W8}. *)

val sign_bit : t -> int64
(** Mask with only the top bit of the width set. *)

val all : t list
(** All widths, narrowest first. *)

val to_string : t -> string
(** ["byte"], ["word"], ["dword"] or ["qword"]. *)

val equal : t -> t -> bool
