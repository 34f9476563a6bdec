open Revizor_isa

(** The sandbox memory: a little-endian byte array mapped at
    {!Layout.sandbox_base}. Accesses outside it raise {!Fault} — generated
    test cases can never fault thanks to the masking instrumentation, but
    hand-written gadgets are checked. *)

type t

exception Fault of int64
(** Access outside the sandbox (the faulting virtual address). *)

val create : unit -> t
(** Zero-initialized sandbox. *)

val read : t -> addr:int64 -> Width.t -> int64
val write : t -> addr:int64 -> Width.t -> int64 -> unit

val read_byte : t -> int -> int
(** Read by sandbox offset (for input setup and inspection). *)

val write_data_word : t -> word:int -> int64 -> unit
(** [write_data_word t ~word v] writes the [word]-th aligned 64-bit word
    of the data area — equal to
    [write t ~addr:(sandbox_base + 8 * word) W64 v] without the
    address arithmetic. Input materialization fills the whole sandbox
    through this on every test case. *)

val fill : t -> f:(int -> int) -> unit
(** Initialize every data byte from its offset ([f] returns 0–255); the
    guard tail is zeroed. *)

val journal_begin : t -> int
(** Open a journal level and return its mark. While any level is open,
    every {!write} first saves the bytes it overwrites. Levels nest: a
    transient episode or a speculative exploration opens one inside the
    level of the run that contains it. Cheap: a counter plus a few saved
    bytes per store, instead of blitting the whole sandbox out and back
    in. Only {!write} is journaled; the input-setup writers
    ({!write_data_word}, {!fill}, {!raw}) are not. *)

val journal_undo : t -> mark:int -> unit
(** Undo every journaled write since [mark] (most recent first),
    restoring the memory image seen when the level was opened, and close
    the level. Recording stops only when the outermost level closes; an
    enclosing level keeps recording and can still be undone exactly.
    @raise Invalid_argument if no level is open or [mark] is not a mark
    of an open level. *)

val raw : t -> bytes
(** The backing byte array (offset 0 = {!Layout.sandbox_base}). Escape
    hatch for the input-materialization fast path, which fills the data
    words with an unboxed PRNG loop; all other code must go through the
    checked accessors. *)

val copy : t -> t

val blit_into : t -> dst:t -> unit
(** Overwrite [dst] with [src]'s contents: one flat blit, not journaled. *)

val equal : t -> t -> bool
