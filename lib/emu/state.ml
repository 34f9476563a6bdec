open Revizor_isa

(* The register file is sixteen 8-byte registers in one [Bytes.t]: a
   write stores the number's bits in place, where an [int64 array]
   stored a pointer to a freshly boxed number (an allocation, and a write
   barrier into a long-lived template). Register [r] lives at byte offset
   [8 * Reg.index r]; [reg_offset] is the only code that knows it. *)
type t = {
  regs : Bytes.t;
  mutable flags : Flags.t;
  mem : Memory.t;
  mutable pc : int;
}

let reg_bytes = 16 * 8

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let reg_offset r = 8 * Reg.index r

(* Unchecked: every offset comes from [reg_offset], so it is in range. *)
let[@inline] get_at t off = get64u t.regs off
let[@inline] set_at t off v = set64u t.regs off v

let create () =
  let t =
    {
      regs = Bytes.make reg_bytes '\000';
      flags = Flags.empty;
      mem = Memory.create ();
      pc = 0;
    }
  in
  set_at t (reg_offset Reg.sandbox_base) Layout.sandbox_base;
  set_at t (reg_offset Reg.stack_pointer) Layout.stack_top;
  t

let get_reg t r w = Word.zext w (get_at t (reg_offset r))

let set_reg t r w v =
  let off = reg_offset r in
  set_at t off (Word.merge w ~old:(get_at t off) v)

let copy t =
  { regs = Bytes.copy t.regs; flags = t.flags; mem = Memory.copy t.mem; pc = t.pc }

let copy_into src ~dst =
  Bytes.blit src.regs 0 dst.regs 0 reg_bytes;
  dst.flags <- src.flags;
  Memory.blit_into src.mem ~dst:dst.mem;
  dst.pc <- src.pc

type slot = {
  sl_regs : Bytes.t;
  mutable sl_flags : Flags.t;
  mutable sl_pc : int;
  mutable sl_mark : int;
}

let slot () =
  {
    sl_regs = Bytes.make reg_bytes '\000';
    sl_flags = Flags.empty;
    sl_pc = 0;
    sl_mark = 0;
  }

let save t s =
  Bytes.blit t.regs 0 s.sl_regs 0 reg_bytes;
  s.sl_flags <- t.flags;
  s.sl_pc <- t.pc;
  s.sl_mark <- Memory.journal_begin t.mem

let undo t s =
  Memory.journal_undo t.mem ~mark:s.sl_mark;
  Bytes.blit s.sl_regs 0 t.regs 0 reg_bytes;
  t.flags <- s.sl_flags;
  t.pc <- s.sl_pc

let equal_arch a b =
  Bytes.equal a.regs b.regs && Flags.equal a.flags b.flags
  && Memory.equal a.mem b.mem

let pp fmt t =
  Format.fprintf fmt "@[<v>pc=%d flags=%a" t.pc Flags.pp t.flags;
  List.iter
    (fun r ->
      Format.fprintf fmt "@,%s = 0x%Lx" (Reg.name r Width.W64)
        (get_at t (reg_offset r)))
    Reg.gen_pool;
  Format.fprintf fmt "@]"
