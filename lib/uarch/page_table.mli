(** Accessed bits of the sandbox data pages, for the microcode-assist
    executor mode (§5.3, " *+Assist"). The executor clears the Accessed bit
    of one page before a measurement; the first load or store touching that
    page then triggers a microcode assist. *)

type t

val create : unit -> t
(** All pages start with the Accessed bit set (no assists). *)

val clear_accessed : t -> page:int -> unit

val set_all : t -> unit

val access : t -> page:int -> bool
(** [access t ~page] is [true] iff this access triggers an assist; the
    Accessed bit is set as a side effect (assists fire once per clearing). *)

val accessed : t -> page:int -> bool
