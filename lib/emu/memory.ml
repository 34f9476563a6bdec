open Revizor_isa

type t = {
  data : bytes;
  (* The sandbox's bytes, then the pending bitmap of the on-demand fill
     ({!defer}) at [pending_at]: bit [w land 7] of its byte [w lsr 3] is
     set while data word [w] still holds an earlier fill's bytes (128
     bytes, then two that stay zero: the guard tail's words). In the
     sandbox's buffer, which is too large for the minor heap, the bitmap
     adds no young block to a long-lived template, and one blit copies
     both. The source is immediate ints plus a pointer to a shared table
     that changes only when the table does. *)
  mutable rows : int array;
  mutable s_lo : int;
  mutable s_hi : int;
  mutable bits : int;
  mutable filled : int;
  (* Store-undo journal: while a level is open ([j_depth > 0]), every
     {!write} first saves the overwritten bytes, so a run, a speculative
     exploration or a transient episode is rolled back by undoing its few
     stores in reverse instead of blitting the whole sandbox out and
     back. Entries pack [off lsl 4 lor len] in [j_meta] with the old
     bytes at [j_old.(8k..)]. Reverse-order replay makes duplicate
     entries for the same location harmless. A level's mark is the entry
     count when it opened, so undoing an inner level leaves the entries
     of the enclosing ones in place. *)
  mutable j_depth : int;
  mutable j_n : int;
  mutable j_meta : int array;
  mutable j_old : bytes;
}

exception Fault of int64

let data_words = Layout.data_pages * Layout.page_size / 8
let pending_at = Layout.sandbox_size

let create () =
  {
    data = Bytes.make (pending_at + (data_words / 8) + 2) '\000';
    rows = [||];
    s_lo = 0;
    s_hi = 0;
    bits = 0;
    filled = 0;
    j_depth = 0;
    j_n = 0;
    j_meta = Array.make 32 0;
    j_old = Bytes.create (8 * 32);
  }

(* ---- on-demand fill ---------------------------------------------------- *)

(* Low 16 bits of xorshift64*'s output multiplier: with at most 16 value
   bits, only the low 16 bits of the state and of the multiplier reach
   the value. *)
let mul_lo16 = 0x2545F4914F6CDD1D land 0xFFFF

let[@inline] parity32 x =
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  (* 0x6996: bit i is the parity of the nibble i *)
  (0x6996 lsr (x land 0xF)) land 1

(* Word [w]'s value under [t]'s source: bit [b] of the state it is drawn
   from is the parity of [row (w, b) land s]. *)
let source_value t w =
  let rows = t.rows and x = ref 0 in
  for b = 0 to t.bits - 1 do
    let r = 2 * ((b * data_words) + w) in
    x :=
      !x
      lor (parity32 ((rows.(r) land t.s_lo) lxor (rows.(r + 1) land t.s_hi)) lsl b)
  done;
  ((!x * mul_lo16) land ((1 lsl t.bits) - 1)) lsl 6

external get16u : bytes -> int -> int = "%caml_bytes_get16u"

(* The pending bits of words [w] and [w + 1]: a little-endian load puts
   word [w + 1]'s bit right after word [w]'s. Unchecked: for any word of
   the sandbox both bytes are inside the bitmap or its zero tail, and a
   checked load would add a bounds-error path to every inlined access. *)
let[@inline] pending_pair t w =
  let i = pending_at + (w lsr 3) in
  let bits = if Sys.big_endian then Bytes.get_uint16_le t.data i else get16u t.data i in
  (bits lsr (w land 7)) land 3

let set_pending t c = Bytes.fill t.data pending_at (data_words / 8) c

let settle t w =
  let i = pending_at + (w lsr 3) in
  Bytes.set_uint8 t.data i (Bytes.get_uint8 t.data i land lnot (1 lsl (w land 7)))

let fill_word t w =
  Bytes.set_int64_le t.data (8 * w) (Int64.of_int (source_value t w));
  settle t w;
  t.filled <- t.filled + 1

let fill_pair t w pending =
  if pending land 1 <> 0 then fill_word t w;
  if pending land 2 <> 0 then fill_word t (w + 1)

(* Fill the pending words that [len] bytes at sandbox offset [off]
   overlap: [w], and [w + 1] if the access straddles into it. Inline,
   only the test: one load of two bits. *)
let[@inline] fill_overlapped t off len =
  let w = off lsr 3 in
  let pending = pending_pair t w land ((2 lsl (((off + len - 1) lsr 3) - w)) - 1) in
  if pending <> 0 then fill_pair t w pending

let defer t ~rows ~lo ~hi ~bits =
  if bits < 0 || bits > 16 || Array.length rows < 2 * data_words * bits then
    invalid_arg "Memory.defer";
  if t.rows != rows then t.rows <- rows;
  t.s_lo <- lo land 0xFFFF_FFFF;
  t.s_hi <- hi land 0xFFFF_FFFF;
  t.bits <- bits;
  t.filled <- 0;
  set_pending t '\255'

let words_filled t = t.filled

(* ---- journal ------------------------------------------------------------ *)

let journal_note t off len =
  if t.j_n >= Array.length t.j_meta then begin
    let n = 2 * Array.length t.j_meta in
    let meta = Array.make n 0 in
    Array.blit t.j_meta 0 meta 0 t.j_n;
    t.j_meta <- meta;
    let old = Bytes.create (8 * n) in
    Bytes.blit t.j_old 0 old 0 (8 * t.j_n);
    t.j_old <- old
  end;
  Bytes.blit t.data off t.j_old (8 * t.j_n) len;
  t.j_meta.(t.j_n) <- (off lsl 4) lor len;
  t.j_n <- t.j_n + 1

let journal_begin t =
  t.j_depth <- t.j_depth + 1;
  t.j_n

let journal_undo t ~mark =
  if t.j_depth = 0 || mark < 0 || mark > t.j_n then
    invalid_arg "Memory.journal_undo";
  for k = t.j_n - 1 downto mark do
    let e = t.j_meta.(k) in
    Bytes.blit t.j_old (8 * k) t.data (e lsr 4) (e land 0xF)
  done;
  t.j_n <- mark;
  t.j_depth <- t.j_depth - 1

let[@inline] check addr width =
  let off = Int64.sub addr Layout.sandbox_base in
  if
    Int64.compare off 0L < 0
    || Int64.compare
         (Int64.add off (Int64.of_int (Width.bytes width)))
         (Int64.of_int pending_at)
       > 0
  then raise (Fault addr);
  Int64.to_int off

(* Little-endian accessors: single (unaligned) machine loads and stores
   instead of per-byte Int64 shifting — these run on every emulated memory
   access of both the model and the executor. A store fills the words it
   overlaps before the journal saves them, so an undo restores filled
   bytes. *)

let[@inline] read t ~addr width =
  let off = check addr width in
  fill_overlapped t off (Width.bytes width);
  match width with
  | Width.W8 -> Int64.of_int (Bytes.get_uint8 t.data off)
  | Width.W16 -> Int64.of_int (Bytes.get_uint16_le t.data off)
  | Width.W32 ->
      Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.data off)) 0xFFFF_FFFFL
  | Width.W64 -> Bytes.get_int64_le t.data off

let[@inline] write t ~addr width v =
  let off = check addr width in
  fill_overlapped t off (Width.bytes width);
  if t.j_depth > 0 then journal_note t off (Width.bytes width);
  match width with
  | Width.W8 -> Bytes.set_uint8 t.data off (Int64.to_int v land 0xFF)
  | Width.W16 -> Bytes.set_uint16_le t.data off (Int64.to_int v land 0xFFFF)
  | Width.W32 -> Bytes.set_int32_le t.data off (Int64.to_int32 v)
  | Width.W64 -> Bytes.set_int64_le t.data off v

let write_data_word t ~word v =
  Bytes.set_int64_le t.data (word * 8) v;
  settle t word

let fill t ~f =
  set_pending t '\000';
  for off = 0 to pending_at - 1 do
    let v = if off < Layout.data_pages * Layout.page_size then f off land 0xFF else 0 in
    Bytes.set t.data off (Char.chr v)
  done

let blit_into src ~dst =
  Bytes.blit src.data 0 dst.data 0 (Bytes.length src.data);
  dst.rows <- src.rows;
  dst.s_lo <- src.s_lo;
  dst.s_hi <- src.s_hi;
  dst.bits <- src.bits;
  dst.filled <- src.filled

let copy t =
  let c = create () in
  blit_into t ~dst:c;
  c

let rec any_pending t i =
  i < data_words / 8
  && ((not (Int64.equal (Bytes.get_int64_ne t.data (pending_at + i)) 0L))
     || any_pending t (i + 8))

(* Equal as every access sees them: a pending word compares by the value
   its fill would write, in a copy, so neither argument is filled. *)
let equal a b =
  let settled t =
    if not (any_pending t 0) then t.data
    else begin
      let c = copy t in
      for w = 0 to data_words - 1 do
        fill_pair c w (pending_pair c w land 1)
      done;
      c.data
    end
  in
  Bytes.equal (settled a) (settled b)
