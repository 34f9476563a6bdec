open Revizor_isa

(** The sandbox memory: a little-endian byte array mapped at
    {!Layout.sandbox_base}. Accesses outside it raise {!Fault} — generated
    test cases can never fault thanks to the masking instrumentation, but
    hand-written gadgets are checked. *)

type t

exception Fault of int64
(** Access outside the sandbox (the faulting virtual address). *)

val create : unit -> t
(** Zero-initialized sandbox, nothing pending. *)

val read : t -> addr:int64 -> Width.t -> int64

val write : t -> addr:int64 -> Width.t -> int64 -> unit
(** Both first fill the pending data words ({!defer}) the access
    overlaps, a store before the journal saves what it overwrites. *)

val defer : t -> rows:int array -> lo:int -> hi:int -> bits:int -> unit
(** The on-demand input fill: mark every data word pending (one bit per
    word) on the source [s = hi * 2^32 + lo], in 32-bit limbs. The first
    {!read} or {!write} that overlaps pending word [w] writes
    [((x * 0xDD1D) land (2^bits - 1)) lsl 6] to it as a 64-bit word,
    where bit [b] of [x] is the parity of [row (w, b) land s], and clears
    its bit; nothing can see a pending word's old bytes. Row [(w, b)]
    has its low limb at [rows.(2 * (b * 1024 + w))] and its high limb
    next. That is data word [w] of the input fill ([Input.apply],
    DESIGN.md §6). [rows] is kept, not copied, so it must not change.
    Resets {!words_filled}.
    @raise Invalid_argument unless [0 <= bits <= 16] and [rows] holds
    [bits] rows per word. *)

val words_filled : t -> int
(** Data words filled on first access since the last {!defer}. *)

val write_data_word : t -> word:int -> int64 -> unit
(** [write_data_word t ~word v] writes the [word]-th aligned 64-bit word
    of the data area and clears its pending bit — equal to
    [write t ~addr:(sandbox_base + 8 * word) W64 v] without the address
    arithmetic or the journal. The eager input fill uses it. *)

val fill : t -> f:(int -> int) -> unit
(** Initialize every data byte from its offset ([f] returns 0–255),
    clearing every pending bit; the guard tail is zeroed. *)

val journal_begin : t -> int
(** Open a journal level and return its mark. While any level is open,
    every {!write} first saves the bytes it overwrites. Levels nest: a
    transient episode or a speculative exploration opens one inside the
    level of the run that contains it. Cheap: a counter plus a few saved
    bytes per store, instead of blitting the whole sandbox out and back
    in. Only {!write} is journaled; the input-setup writers
    ({!defer}, {!write_data_word}, {!fill}) are not, and neither is a
    pending word's fill: its bytes are the input's, before and after
    an undo. *)

val journal_undo : t -> mark:int -> unit
(** Undo every journaled write since [mark] (most recent first),
    restoring the memory image seen when the level was opened, and close
    the level. Recording stops only when the outermost level closes; an
    enclosing level keeps recording and can still be undone exactly.
    @raise Invalid_argument if no level is open or [mark] is not a mark
    of an open level. *)

val copy : t -> t

val blit_into : t -> dst:t -> unit
(** Overwrite [dst] with [src]'s contents, pending words and fill source
    included: flat blits, not journaled. *)

val equal : t -> t -> bool
(** Equality as accesses see it: a pending word compares by the value
    its fill would write. Fills nothing. *)
