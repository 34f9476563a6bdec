open Revizor_isa

type t = {
  regs : int64 array;
  mutable flags : Flags.t;
  mem : Memory.t;
  mutable pc : int;
}

let create () =
  let regs = Array.make 16 0L in
  regs.(Reg.index Reg.sandbox_base) <- Layout.sandbox_base;
  regs.(Reg.index Reg.stack_pointer) <- Layout.stack_top;
  { regs; flags = Flags.empty; mem = Memory.create (); pc = 0 }

let get_reg t r w = Word.zext w t.regs.(Reg.index r)

let set_reg t r w v =
  let i = Reg.index r in
  t.regs.(i) <- Word.merge w ~old:t.regs.(i) v

let copy t =
  { regs = Array.copy t.regs; flags = t.flags; mem = Memory.copy t.mem; pc = t.pc }

let copy_into src ~dst =
  Array.blit src.regs 0 dst.regs 0 16;
  dst.flags <- src.flags;
  Memory.blit_into src.mem ~dst:dst.mem;
  dst.pc <- src.pc

type slot = {
  sl_regs : int64 array;
  mutable sl_flags : Flags.t;
  mutable sl_pc : int;
  mutable sl_mark : int;
}

let slot () =
  { sl_regs = Array.make 16 0L; sl_flags = Flags.empty; sl_pc = 0; sl_mark = 0 }

let save t s =
  Array.blit t.regs 0 s.sl_regs 0 16;
  s.sl_flags <- t.flags;
  s.sl_pc <- t.pc;
  s.sl_mark <- Memory.journal_begin t.mem

let undo t s =
  Memory.journal_undo t.mem ~mark:s.sl_mark;
  Array.blit s.sl_regs 0 t.regs 0 16;
  t.flags <- s.sl_flags;
  t.pc <- s.sl_pc

let equal_arch a b =
  a.regs = b.regs && Flags.equal a.flags b.flags && Memory.equal a.mem b.mem

let pp fmt t =
  Format.fprintf fmt "@[<v>pc=%d flags=%a" t.pc Flags.pp t.flags;
  List.iter
    (fun r ->
      Format.fprintf fmt "@,%s = 0x%Lx" (Reg.name r Width.W64)
        t.regs.(Reg.index r))
    Reg.gen_pool;
  Format.fprintf fmt "@]"
