(** General-purpose registers of the modelled x86-64 subset.

    Registers are identified independently of access width; the width of an
    access is carried by the operand (see {!Operand}). Test-case generation
    uses only {!gen_pool} (four registers, as in the paper, to keep input
    effectiveness high); [R14] holds the sandbox base and [RSP] the simulated
    stack pointer. *)

type t =
  | RAX
  | RBX
  | RCX
  | RDX
  | RSI
  | RDI
  | RBP
  | RSP
  | R8
  | R9
  | R10
  | R11
  | R12
  | R13
  | R14
  | R15

val all : t list
(** All sixteen registers, in encoding order. *)

val gen_pool : t list
(** Registers the test-case generator draws from: RAX, RBX, RCX, RDX. *)

val sandbox_base : t
(** Register holding the sandbox base address (R14, as in the paper). *)

val stack_pointer : t
(** Register used as stack pointer by CALL/RET (RSP). *)

val index : t -> int
(** Stable index in [0, 15], suitable for array-backed register files. *)

val of_index : int -> t
(** Inverse of {!index}. @raise Invalid_argument if out of range. *)

val name : t -> Width.t -> string
(** Assembly name at a given access width, e.g. [name RAX W32 = "EAX"],
    [name R8 W16 = "R8W"]. *)

val of_name : string -> (t * Width.t) option
(** Parse an assembly register name (any case); inverse of {!name}. *)

val equal : t -> t -> bool
val compare : t -> t -> int
