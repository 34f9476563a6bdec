(** x86 condition codes, used by Jcc, CMOVcc and SETcc. *)

type t =
  | O  (** overflow *)
  | NO
  | B  (** below (CF) *)
  | AE
  | Z  (** zero *)
  | NZ
  | BE  (** below or equal (CF or ZF) *)
  | A
  | S  (** sign *)
  | NS
  | P  (** parity *)
  | NP
  | L  (** less (SF <> OF) *)
  | GE
  | LE
  | G

val all : t list

val negate : t -> t
(** The complementary condition, e.g. [negate Z = NZ]. *)

val suffix : t -> string
(** Mnemonic suffix, e.g. ["NBE"] is not produced: canonical forms only
    (["O"], ["NO"], ["B"], ["AE"], ...). *)

val of_suffix : string -> t option
(** Parse a mnemonic suffix, accepting the common aliases
    (C/NC, NAE/NB, E/NE, NA/NBE, PE/PO, NGE/NL, NG/NLE). *)

val equal : t -> t -> bool
