open Revizor_isa

type t = {
  data : bytes;
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

let create () =
  {
    data = Bytes.make Layout.sandbox_size '\000';
    j_depth = 0;
    j_n = 0;
    j_meta = Array.make 32 0;
    j_old = Bytes.create (8 * 32);
  }

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

let[@inline] check t addr width =
  let off = Int64.sub addr Layout.sandbox_base in
  if
    Int64.compare off 0L < 0
    || Int64.compare
         (Int64.add off (Int64.of_int (Width.bytes width)))
         (Int64.of_int (Bytes.length t.data))
       > 0
  then raise (Fault addr);
  Int64.to_int off

(* Little-endian accessors: single (unaligned) machine loads and stores
   instead of per-byte Int64 shifting — these run on every emulated memory
   access of both the model and the executor. *)

let[@inline] read t ~addr width =
  let off = check t addr width in
  match width with
  | Width.W8 -> Int64.of_int (Bytes.get_uint8 t.data off)
  | Width.W16 -> Int64.of_int (Bytes.get_uint16_le t.data off)
  | Width.W32 ->
      Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.data off)) 0xFFFF_FFFFL
  | Width.W64 -> Bytes.get_int64_le t.data off

let[@inline] write t ~addr width v =
  let off = check t addr width in
  if t.j_depth > 0 then journal_note t off (Width.bytes width);
  match width with
  | Width.W8 -> Bytes.set_uint8 t.data off (Int64.to_int v land 0xFF)
  | Width.W16 -> Bytes.set_uint16_le t.data off (Int64.to_int v land 0xFFFF)
  | Width.W32 -> Bytes.set_int32_le t.data off (Int64.to_int32 v)
  | Width.W64 -> Bytes.set_int64_le t.data off v

let read_byte t off = Char.code (Bytes.get t.data off)
let write_data_word t ~word v = Bytes.set_int64_le t.data (word * 8) v

let fill t ~f =
  for off = 0 to Bytes.length t.data - 1 do
    let v = if off < Layout.data_pages * Layout.page_size then f off land 0xFF else 0 in
    Bytes.set t.data off (Char.chr v)
  done

let raw t = t.data

let copy t =
  let c = create () in
  Bytes.blit t.data 0 c.data 0 (Bytes.length t.data);
  c
let blit_into src ~dst = Bytes.blit src.data 0 dst.data 0 (Bytes.length src.data)
let equal a b = Bytes.equal a.data b.data
