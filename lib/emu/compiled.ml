open Revizor_isa

(* Decode-once compiled program representation.

   A flat program is executed hundreds of times per test case (model
   pass, nesting re-check, executor warm-up, measurement repetitions and
   swap-check re-measurements over the whole input sequence), and the
   interpreted path re-derives every piece of per-instruction metadata on
   every single step: [Semantics.step] re-matches the opcode and operand
   shape, [Instruction.regs_read]/[regs_written] rebuild and re-sort
   register lists, [Opcode.reads_flags]/[is_serializing] re-classify, and
   [Ports.of_instruction] allocates a fresh list per µop.

   [of_flat] performs all of that work exactly once, producing for each
   instruction (a) a {!desc} of precomputed metadata — register indices
   as int arrays, classification bits as bools, the port list as an int
   array, the memory operand resolved to register offsets, scale and
   displacement — and (b) the semantic action compiled to
   one OCaml closure over its operands resolved to data (register byte
   offsets and masks, immediates, address recipes), so a step is one
   indirect call on unboxed values instead of a match cascade.

   The primary execution interface is the allocation-free {!raw} form:
   the action mutates the state and appends its memory accesses to a
   caller-owned reusable {!abuf} instead of consing an access list and an
   outcome record per step.

   On top of the raw actions, [of_flat] runs three static analyses:

   - [run_len]/[nostore_len]: for every pc, the length of the maximal
     straight-line run starting there (no control flow, no serializing
     instruction; [nostore_len] additionally stops before stores, for
     contracts with store-bypass clauses). A batched walker can execute
     such a run as one block without re-checking any speculation clause
     in between.

   - observation liveness: a backward analysis over the whole
     control-flow graph on the 16 registers and the flag word, with
     memory always live. A contract trace records only addresses, control flow and
     loaded values, and a hardware trace only the cache lines a run
     touched, so a value no later address, branch, division or store
     reads cannot change either. [dead_len] marks the register-only
     instructions none of whose results is read, and [fused] elides, at
     the other pcs, every flag write no observer reads. Liveness at a pc
     depends only on the code after it, so it holds wherever execution
     enters: at a speculative exploration's start, or at a transient
     episode's.

   - the CPU simulator's timing plan ({!plan}): for every pc, the length
     of the maximal timing-plain run starting there (no memory operand,
     no control flow, not serializing, not DIV/IDIV) and µop suffix sums
     for each port timing-plain instructions use.

   [interpreted] builds the same descriptors but keeps the semantic
   action as a call into {!Semantics.step}, elides and skips nothing and
   carries an empty plan; it is the reference the compiled engine is
   differentially tested against (the two give bit-identical traces,
   faults and memory, and [raws] also leaves every register and flag as
   the interpreter does).

   A compiled program is immutable after construction and holds no
   execution state, so one value is safely shared read-only across
   domains (the parallel model stage). *)

type abuf = {
  mutable ab_len : int;
  mutable ab_store : bool array;
  mutable ab_addr : Bytes.t;
  mutable ab_width : Width.t array;
  mutable ab_value : Bytes.t;
}

type raw = State.t -> abuf -> unit

(* An instruction's latency class, fixed by its opcode; the uarch layer
   ([Cpu.exec_latency]) maps a class to cycles for its configuration once
   per run instead of re-matching the opcode per step. [Lat_div] is
   resolved operand-dependently (the dividend's magnitude) by the
   caller. *)
type lat_class = Lat_alu | Lat_mul | Lat_div | Lat_branch

(* A memory operand as data. The effective address ({!mem_addr}) is
   branch-free arithmetic on it: an absent base register reads the
   register at offset 0 under a zero mask, an absent index one under a
   zero scale, so no branch yields a constant [0L], which would box the
   address (see the helpers under "Operands as data"). *)
type mem_ref = {
  mr_width : Width.t;
  mr_base : int;  (** {!Reg.index} of the base register, or -1 *)
  mr_index : int;  (** {!Reg.index} of the index register, or -1 *)
  mr_base_at : int;
  mr_base_mask : int;
  mr_index_at : int;
  mr_scale : int;
  mr_disp : int;
  mr_mask : int64;
}

type desc = {
  d_inst : Instruction.t;
  d_serializing : bool;
  d_control_flow : bool;
  d_loads : bool;
  d_stores : bool;
  d_reads_flags : bool;
  d_writes_flags : bool;
  d_cond : Cond.t option;  (** [Some c] iff the instruction is [Jcc c] *)
  d_srcs : int array;  (** {!Reg.index} of every register read *)
  d_dsts : int array;  (** {!Reg.index} of every register written *)
  d_ports : int array;  (** one entry per µop, cf. {!Ports.of_instruction} *)
  d_lat : lat_class;
  d_div_width : Width.t;  (** operand width of a division (else W64) *)
  d_mem : mem_ref option;  (** first memory operand, pre-resolved *)
}

type plan = { plain_len : int array; plain_ports : int array; port_sums : int array }

type t = {
  flat : Program.flat;
  descs : desc array;
  raws : raw array;
  fused : raw array;
  dead_len : int array;
  run_len : int array;
  nostore_len : int array;
  plan : plan;
}

(* ------------------------------------------------------------------ *)
(* Access buffers                                                      *)
(* ------------------------------------------------------------------ *)

let abuf_create () =
  {
    ab_len = 0;
    ab_store = Array.make 8 false;
    ab_addr = Bytes.create (8 * 8);
    ab_width = Array.make 8 Width.W64;
    ab_value = Bytes.create (8 * 8);
  }

let abuf_clear ab = ab.ab_len <- 0

let abuf_grow ab =
  let cap = Array.length ab.ab_store in
  let ncap = 2 * cap in
  let grow a zero =
    let a' = Array.make ncap zero in
    Array.blit a 0 a' 0 cap;
    a'
  in
  let grow_bytes b =
    let b' = Bytes.create (8 * ncap) in
    Bytes.blit b 0 b' 0 (8 * cap);
    b'
  in
  ab.ab_store <- grow ab.ab_store false;
  ab.ab_addr <- grow_bytes ab.ab_addr;
  ab.ab_width <- grow ab.ab_width Width.W64;
  ab.ab_value <- grow_bytes ab.ab_value

let[@inline] abuf_addr ab k = Bytes.get_int64_ne ab.ab_addr (8 * k)
let[@inline] abuf_value ab k = Bytes.get_int64_ne ab.ab_value (8 * k)

let[@inline] abuf_push ab ~is_store ~addr ~width ~value =
  let n = ab.ab_len in
  if n = Array.length ab.ab_store then abuf_grow ab;
  ab.ab_store.(n) <- is_store;
  Bytes.set_int64_ne ab.ab_addr (8 * n) addr;
  ab.ab_width.(n) <- width;
  Bytes.set_int64_ne ab.ab_value (8 * n) value;
  ab.ab_len <- n + 1

(* Materialize the recorded accesses as a [Semantics.access] list, in
   occurrence order. Only used on cold paths (contract stream
   recording). *)
let abuf_accesses ab =
  let rec go k acc =
    if k < 0 then acc
    else
      go (k - 1)
        ({
           Semantics.kind = (if ab.ab_store.(k) then `Store else `Load);
           addr = abuf_addr ab k;
           width = ab.ab_width.(k);
           value = abuf_value ab k;
         }
        :: acc)
  in
  go (ab.ab_len - 1) []

(* ------------------------------------------------------------------ *)
(* Operands as data                                                    *)
(* ------------------------------------------------------------------ *)

(* Every operand is resolved once, when its instruction is compiled, to
   the data a step needs; the step reads and writes it through the
   inline helpers below, so its values stay unboxed from the register
   file to the register file.

   A register is its byte offset in [State.regs], the zero-extension
   mask of a read, and the keep/take masks of an x86 merge write:
   [(old land keep) lor (v land take)] is (0, -1) at W64, (0,
   0xFFFF_FFFF) at W32 (which zeroes the upper half) and (lnot mask,
   mask) at W8/W16. *)
type reg = { r_off : int; r_mask : int64; r_keep : int64; r_take : int64 }

(* An immediate is its value, zero-extended at the instruction's operand
   width, in an 8-byte buffer: it reads like a register, as a fresh
   unboxed load. (A captured [int64] would be an already-boxed value,
   and one such branch makes ocamlopt box the whole read.) *)
type opnd = R of reg | I of Bytes.t | M of mem_ref

let reg_of r w =
  let mask = Width.mask w in
  let keep, take =
    match w with
    | Width.W64 -> (0L, -1L)
    | Width.W32 -> (0L, 0xFFFF_FFFFL)
    | Width.W8 | Width.W16 -> (Int64.lognot mask, mask)
  in
  { r_off = State.reg_offset r; r_mask = mask; r_keep = keep; r_take = take }

let mem_of (m : Operand.mem) w =
  let index = function Some r -> Reg.index r | None -> -1 in
  let at = function Some r -> State.reg_offset r | None -> 0 in
  {
    mr_width = w;
    mr_base = index m.Operand.base;
    mr_index = index m.Operand.index;
    mr_base_at = at m.Operand.base;
    mr_base_mask = (match m.Operand.base with Some _ -> -1 | None -> 0);
    mr_index_at = at m.Operand.index;
    mr_scale = (match m.Operand.index with Some _ -> m.Operand.scale | None -> 0);
    mr_disp = m.Operand.disp;
    mr_mask = Width.mask w;
  }

(* [w] is the instruction's operand width, used only for immediates. *)
let opnd_of w (op : Operand.t) =
  match op with
  | Operand.Reg (r, w') -> R (reg_of r w')
  | Operand.Imm v ->
      let b = Bytes.create 8 in
      Bytes.set_int64_ne b 0 (Word.zext w v);
      I b
  | Operand.Mem (m, w') -> M (mem_of m w')

(* The helpers every action is written with. Without flambda, ocamlopt
   keeps a let-bound [int64] unboxed only when every branch of its
   definition produces a fresh number (or raises), so each helper is
   inlined, and so are the [Memory] accessors and [Flags] rules they
   reach. *)

let[@inline] read_reg st r = Int64.logand (State.get_at st r.r_off) r.r_mask

let[@inline] write_reg st r v =
  State.set_at st r.r_off
    (Int64.logor
       (Int64.logand (State.get_at st r.r_off) r.r_keep)
       (Int64.logand v r.r_take))

(* Effective address, kept associatively identical to
   [Semantics.mem_addr]: (base + index*scale) + disp over wrapping
   Int64, where an absent register contributes 0. *)
let[@inline] mem_addr st m =
  Int64.add
    (Int64.add
       (Int64.logand (State.get_at st m.mr_base_at) (Int64.of_int m.mr_base_mask))
       (Int64.mul (State.get_at st m.mr_index_at) (Int64.of_int m.mr_scale)))
    (Int64.of_int m.mr_disp)

(* Accesses are recorded only after the memory operation succeeded, so a
   faulting access never appears in the buffer (matching the interpreter,
   whose outcome never materializes on a fault). *)
let[@inline] load_mem (st : State.t) ab m =
  let addr = mem_addr st m and width = m.mr_width in
  let value = Memory.read st.State.mem ~addr width in
  abuf_push ab ~is_store:false ~addr ~width ~value;
  value

let[@inline] store_mem (st : State.t) ab m v =
  let addr = mem_addr st m and width = m.mr_width in
  let value = Int64.logand v m.mr_mask in
  Memory.write st.State.mem ~addr width value;
  abuf_push ab ~is_store:true ~addr ~width ~value

(* Source read (zero-extended), cf. [Semantics.read_src]. *)
let[@inline] read st ab = function
  | R r -> read_reg st r
  | I b -> Bytes.get_int64_ne b 0
  | M m -> load_mem st ab m

(* Destination read for read-modify-write, cf. [Semantics.read_dst]. *)
let[@inline] read_dst st ab = function
  | R r -> read_reg st r
  | M m -> load_mem st ab m
  | I _ -> raise (Invalid_argument "Semantics: immediate destination")

(* A read made only for its accesses and faults: the conversion consumes
   the value unboxed, where [ignore] would box it first. *)
let[@inline] discard (v : int64) = ignore (Int64.to_int v)

let[@inline] write st ab op v =
  match op with
  | R r -> write_reg st r v
  | M m -> store_mem st ab m v
  | I _ -> raise (Invalid_argument "Semantics: immediate destination")

let operand_width (i : Instruction.t) =
  match List.find_map (fun op -> Operand.width op) i.Instruction.operands with
  | Some w -> w
  | None -> Width.W64

(* ------------------------------------------------------------------ *)
(* Semantic-action compilation                                         *)
(* ------------------------------------------------------------------ *)

(* Each instruction compiles to one closure that reads its operands,
   computes, updates the flags, writes its destination and advances pc:
   a step is one indirect call. [~flags:false] compiles the dead-flag
   variant: identical register and memory effects (same loads and
   stores, in the same order, faulting at the same points) but without
   computing or writing the flag word. It is only ever requested where
   the liveness analysis proved the flag word unobservable, so eliding
   it cannot change any trace. *)

let[@inline] rotate w ~rol ~bits a eff =
  if eff = 0 then a
  else if rol then
    Word.zext w
      (Int64.logor (Int64.shift_left a eff) (Int64.shift_right_logical a (bits - eff)))
  else
    Word.zext w
      (Int64.logor (Int64.shift_right_logical a eff) (Int64.shift_left a (bits - eff)))

let[@inline] shift w op ~bits a count =
  match op with
  | `Shl ->
      if count >= bits then 0L
      else Word.zext w (Int64.shift_left (Word.zext w a) count)
  | `Shr ->
      if count >= bits then 0L else Int64.shift_right_logical (Word.zext w a) count
  | `Sar -> Word.zext w (Int64.shift_right (Word.sext w a) (Int.min count 63))

let binop_action ~flags ~fall (i : Instruction.t) (dst : Operand.t) src : raw =
  let w = operand_width i in
  let mask = Width.mask w in
  let d = opnd_of w dst and s = opnd_of w src in
  match i.Instruction.opcode with
  | Opcode.Mov | Opcode.Movzx ->
      fun st ab ->
        write st ab d (read st ab s);
        st.State.pc <- fall
  | Opcode.Add ->
      if flags then fun st ab ->
        let a = read_dst st ab d in
        let b = read st ab s in
        let r = Int64.logand (Int64.add a b) mask in
        st.State.flags <- Flags.after_add w ~a ~b ~carry_in:false ~r;
        write st ab d r;
        st.State.pc <- fall
      else fun st ab ->
        let a = read_dst st ab d in
        let b = read st ab s in
        write st ab d (Int64.logand (Int64.add a b) mask);
        st.State.pc <- fall
  | Opcode.Adc ->
      if flags then fun st ab ->
        let cf = Flags.cf st.State.flags in
        let a = read_dst st ab d in
        let b = read st ab s in
        let r =
          Int64.logand (Int64.add (Int64.add a b) (if cf then 1L else 0L)) mask
        in
        st.State.flags <- Flags.after_add w ~a ~b ~carry_in:cf ~r;
        write st ab d r;
        st.State.pc <- fall
      else fun st ab ->
        let c = if Flags.cf st.State.flags then 1L else 0L in
        let a = read_dst st ab d in
        let b = read st ab s in
        write st ab d (Int64.logand (Int64.add (Int64.add a b) c) mask);
        st.State.pc <- fall
  | Opcode.Sub ->
      if flags then fun st ab ->
        let a = read_dst st ab d in
        let b = read st ab s in
        let r = Int64.logand (Int64.sub a b) mask in
        st.State.flags <- Flags.after_sub w ~a ~b ~borrow_in:false ~r;
        write st ab d r;
        st.State.pc <- fall
      else fun st ab ->
        let a = read_dst st ab d in
        let b = read st ab s in
        write st ab d (Int64.logand (Int64.sub a b) mask);
        st.State.pc <- fall
  | Opcode.Sbb ->
      if flags then fun st ab ->
        let cf = Flags.cf st.State.flags in
        let a = read_dst st ab d in
        let b = read st ab s in
        let r =
          Int64.logand (Int64.sub (Int64.sub a b) (if cf then 1L else 0L)) mask
        in
        st.State.flags <- Flags.after_sub w ~a ~b ~borrow_in:cf ~r;
        write st ab d r;
        st.State.pc <- fall
      else fun st ab ->
        let c = if Flags.cf st.State.flags then 1L else 0L in
        let a = read_dst st ab d in
        let b = read st ab s in
        write st ab d (Int64.logand (Int64.sub (Int64.sub a b) c) mask);
        st.State.pc <- fall
  | Opcode.Cmp ->
      if flags then fun st ab ->
        let a = read_dst st ab d in
        let b = read st ab s in
        let r = Int64.logand (Int64.sub a b) mask in
        st.State.flags <- Flags.after_sub w ~a ~b ~borrow_in:false ~r;
        st.State.pc <- fall
      else fun st ab ->
        (* Loads (and their faults) must still happen, in order. *)
        discard (read_dst st ab d);
        discard (read st ab s);
        st.State.pc <- fall
  | Opcode.And ->
      if flags then fun st ab ->
        let a = read_dst st ab d in
        let b = read st ab s in
        let r = Int64.logand (Int64.logand a b) mask in
        st.State.flags <- Flags.after_logic w ~r;
        write st ab d r;
        st.State.pc <- fall
      else fun st ab ->
        let a = read_dst st ab d in
        let b = read st ab s in
        write st ab d (Int64.logand (Int64.logand a b) mask);
        st.State.pc <- fall
  | Opcode.Or ->
      if flags then fun st ab ->
        let a = read_dst st ab d in
        let b = read st ab s in
        let r = Int64.logand (Int64.logor a b) mask in
        st.State.flags <- Flags.after_logic w ~r;
        write st ab d r;
        st.State.pc <- fall
      else fun st ab ->
        let a = read_dst st ab d in
        let b = read st ab s in
        write st ab d (Int64.logand (Int64.logor a b) mask);
        st.State.pc <- fall
  | Opcode.Xor ->
      if flags then fun st ab ->
        let a = read_dst st ab d in
        let b = read st ab s in
        let r = Int64.logand (Int64.logxor a b) mask in
        st.State.flags <- Flags.after_logic w ~r;
        write st ab d r;
        st.State.pc <- fall
      else fun st ab ->
        let a = read_dst st ab d in
        let b = read st ab s in
        write st ab d (Int64.logand (Int64.logxor a b) mask);
        st.State.pc <- fall
  | Opcode.Test ->
      if flags then fun st ab ->
        let a = read_dst st ab d in
        let b = read st ab s in
        let r = Int64.logand (Int64.logand a b) mask in
        st.State.flags <- Flags.after_logic w ~r;
        st.State.pc <- fall
      else fun st ab ->
        discard (read_dst st ab d);
        discard (read st ab s);
        st.State.pc <- fall
  | Opcode.Imul ->
      if flags then fun st ab ->
        let a = read_dst st ab d in
        let b = read st ab s in
        let sa = Word.sext w a and sb = Word.sext w b in
        let full = Int64.mul sa sb in
        let r = Int64.logand full mask in
        let full_overflow =
          match w with
          | Width.W64 ->
              sa <> 0L
              && (Int64.div full sa <> sb || (sa = -1L && sb = Int64.min_int))
          | Width.W8 | Width.W16 | Width.W32 -> Word.sext w full <> full
        in
        st.State.flags <- Flags.after_imul w ~full_overflow ~r;
        write st ab d r;
        st.State.pc <- fall
      else fun st ab ->
        let a = read_dst st ab d in
        let b = read st ab s in
        write st ab d (Int64.logand (Int64.mul (Word.sext w a) (Word.sext w b)) mask);
        st.State.pc <- fall
  | Opcode.Cmov c -> (
      match d with
      | R r ->
          (* x86: the destination is always written (a 32-bit CMOV zeroes
             the upper half even when the condition is false). *)
          fun st ab ->
            let b = read st ab s in
            let old = read_reg st r in
            write_reg st r (if Flags.eval_cond st.State.flags c then b else old);
            st.State.pc <- fall
      | M _ | I _ ->
          fun st ab ->
            discard (read st ab s);
            raise (Invalid_argument "CMOV destination"))
  | Opcode.Movsx ->
      let ws = match Operand.width src with Some w' -> w' | None -> w in
      fun st ab ->
        write st ab d (Word.sext ws (read st ab s));
        st.State.pc <- fall
  | Opcode.Xchg -> (
      match (dst, src) with
      | Operand.Reg (ra, wa), Operand.Reg (rb, _) ->
          let ra = reg_of ra wa and rb = reg_of rb wa in
          fun st _ ->
            let va = read_reg st ra and vb = read_reg st rb in
            write_reg st ra vb;
            write_reg st rb va;
            st.State.pc <- fall
      | Operand.Mem (m, wm), Operand.Reg (r, wr)
      | Operand.Reg (r, wr), Operand.Mem (m, wm) ->
          let m = mem_of m wm and r = reg_of r wr in
          fun st ab ->
            let vm = load_mem st ab m in
            let vr = read_reg st r in
            store_mem st ab m vr;
            write_reg st r vm;
            st.State.pc <- fall
      | _ -> fun _ _ -> raise (Invalid_argument "XCHG operands"))
  | Opcode.Rol | Opcode.Ror ->
      let rol = i.Instruction.opcode = Opcode.Rol in
      let op = if rol then `Rol else `Ror in
      let count_mask = if Width.equal w Width.W64 then 63L else 31L in
      let bits = Width.bits w in
      if flags then fun st ab ->
        let flags = st.State.flags in
        let a = read_dst st ab d in
        let count = Int64.to_int (Int64.logand (read st ab s) count_mask) in
        let r = rotate w ~rol ~bits (Int64.logand a mask) (count mod bits) in
        st.State.flags <- Flags.after_rotate w flags ~op ~count ~r;
        if count <> 0 then write st ab d r;
        st.State.pc <- fall
      else fun st ab ->
        let a = read_dst st ab d in
        let count = Int64.to_int (Int64.logand (read st ab s) count_mask) in
        if count <> 0 then
          write st ab d (rotate w ~rol ~bits (Int64.logand a mask) (count mod bits));
        st.State.pc <- fall
  | Opcode.Shl | Opcode.Shr | Opcode.Sar ->
      let op =
        match i.Instruction.opcode with
        | Opcode.Shl -> `Shl
        | Opcode.Shr -> `Shr
        | _ -> `Sar
      in
      let count_mask = if Width.equal w Width.W64 then 63L else 31L in
      let bits = Width.bits w in
      if flags then fun st ab ->
        let flags = st.State.flags in
        let a = read_dst st ab d in
        let count = Int64.to_int (Int64.logand (read st ab s) count_mask) in
        let r = if count = 0 then Int64.logand a mask else shift w op ~bits a count in
        st.State.flags <- Flags.after_shift w flags ~op ~a ~count ~r;
        if count <> 0 then write st ab d r;
        st.State.pc <- fall
      else fun st ab ->
        let a = read_dst st ab d in
        let count = Int64.to_int (Int64.logand (read st ab s) count_mask) in
        if count <> 0 then write st ab d (shift w op ~bits a count);
        st.State.pc <- fall
  | _ -> fun _ _ -> raise (Invalid_argument "Semantics.exec_binop")

let unop_action ~flags ~fall (i : Instruction.t) dst : raw =
  let w = operand_width i in
  let mask = Width.mask w in
  let d = opnd_of w dst in
  match i.Instruction.opcode with
  | Opcode.Inc ->
      if flags then fun st ab ->
        let flags = st.State.flags in
        let a = read_dst st ab d in
        let r = Int64.logand (Int64.add a 1L) mask in
        st.State.flags <- Flags.after_inc w flags ~a ~r;
        write st ab d r;
        st.State.pc <- fall
      else fun st ab ->
        write st ab d (Int64.logand (Int64.add (read_dst st ab d) 1L) mask);
        st.State.pc <- fall
  | Opcode.Dec ->
      if flags then fun st ab ->
        let flags = st.State.flags in
        let a = read_dst st ab d in
        let r = Int64.logand (Int64.sub a 1L) mask in
        st.State.flags <- Flags.after_dec w flags ~a ~r;
        write st ab d r;
        st.State.pc <- fall
      else fun st ab ->
        write st ab d (Int64.logand (Int64.sub (read_dst st ab d) 1L) mask);
        st.State.pc <- fall
  | Opcode.Neg ->
      if flags then fun st ab ->
        let a = read_dst st ab d in
        let r = Int64.logand (Int64.neg a) mask in
        st.State.flags <- Flags.after_neg w ~a ~r;
        write st ab d r;
        st.State.pc <- fall
      else fun st ab ->
        write st ab d (Int64.logand (Int64.neg (read_dst st ab d)) mask);
        st.State.pc <- fall
  | Opcode.Not ->
      fun st ab ->
        write st ab d (Int64.logand (Int64.lognot (read_dst st ab d)) mask);
        st.State.pc <- fall
  | Opcode.Setcc c ->
      fun st ab ->
        write st ab d (if Flags.eval_cond st.State.flags c then 1L else 0L);
        st.State.pc <- fall
  | _ -> fun _ _ -> raise (Invalid_argument "Semantics.exec_unop")

(* Unsigned 64-bit comparison and division, Stdlib's
   [Int64.unsigned_compare] and [Int64.unsigned_div] inlined: those are
   out-of-line functions, whose calls box their operands and results. A
   DIV step divides once and takes the remainder as [n - q * d]. *)
let[@inline] unsigned_lt a b =
  Int64.sub a Int64.min_int < Int64.sub b Int64.min_int

let[@inline] unsigned_div n d =
  if d < 0L then if unsigned_lt n d then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    if unsigned_lt (Int64.sub n (Int64.mul q d)) d then q else Int64.succ q

(* DIV/IDIV over RDX:RAX at the operand width, cf. [Semantics.exec_div]. *)
let div_action ~fall (i : Instruction.t) src : raw =
  let w = operand_width i in
  let s = opnd_of w src in
  let rax = reg_of Reg.RAX w and rdx = reg_of Reg.RDX w in
  let bits = Width.bits w and mask = Width.mask w in
  let signed = i.Instruction.opcode = Opcode.Idiv in
  fun st ab ->
    let divisor = read st ab s in
    let a = read_reg st rax in
    let hi = read_reg st rdx in
    if Int64.logand divisor mask = 0L then raise Semantics.Division_fault;
    (if not signed then
       match w with
       | Width.W64 ->
           if hi <> 0L then raise Semantics.Division_fault;
           let q = unsigned_div a divisor in
           write_reg st rax q;
           write_reg st rdx (Int64.sub a (Int64.mul q divisor))
       | Width.W8 | Width.W16 | Width.W32 ->
           let dividend = Int64.logor (Int64.shift_left hi bits) a in
           let q = unsigned_div dividend divisor in
           if unsigned_lt mask q then raise Semantics.Division_fault;
           write_reg st rax q;
           write_reg st rdx (Int64.sub dividend (Int64.mul q divisor))
     else
       let sd = Word.sext w divisor in
       match w with
       | Width.W64 ->
           if hi <> Int64.shift_right a 63 then raise Semantics.Division_fault;
           if a = Int64.min_int && sd = -1L then raise Semantics.Division_fault;
           write_reg st rax (Int64.div a sd);
           write_reg st rdx (Int64.rem a sd)
       | Width.W8 | Width.W16 | Width.W32 ->
           let dividend = Int64.logor (Int64.shift_left hi bits) a in
           let q = Int64.div dividend sd in
           let half = Int64.shift_left 1L (bits - 1) in
           if Int64.compare q (Int64.neg half) < 0 || Int64.compare q half >= 0
           then raise Semantics.Division_fault;
           write_reg st rax q;
           write_reg st rdx (Int64.rem dividend sd));
    st.State.pc <- fall

(* The qword at [RSP], which CALL pushes to and RET pops from. *)
let stack_slot =
  mem_of
    { Operand.base = Some Reg.stack_pointer; index = None; scale = 1; disp = 0 }
    Width.W64

let compile_raw (flat : Program.flat) pc (i : Instruction.t) ~flags : raw =
  let code_len = Array.length flat.Program.code in
  let fall = pc + 1 in
  match (i.Instruction.opcode, i.Instruction.operands) with
  | (Opcode.Lfence | Opcode.Mfence | Opcode.Nop), _ ->
      fun st _ -> st.State.pc <- fall
  | Opcode.Jmp, _ ->
      let target = flat.Program.target.(pc) in
      fun st _ -> st.State.pc <- target
  | Opcode.Jcc c, _ ->
      let target = flat.Program.target.(pc) in
      fun st _ ->
        st.State.pc <-
          (if Flags.eval_cond st.State.flags c then target else fall)
  | Opcode.JmpInd, [ Operand.Reg (r, _) ] ->
      let r = reg_of r Width.W64 in
      fun st _ -> st.State.pc <- Semantics.mask_code_index ~code_len (read_reg st r)
  | Opcode.Call, _ ->
      let target = flat.Program.target.(pc) in
      let rsp = reg_of Reg.stack_pointer Width.W64 in
      fun st ab ->
        write_reg st rsp (Int64.sub (read_reg st rsp) 8L);
        store_mem st ab stack_slot (Int64.of_int fall);
        st.State.pc <- target
  | Opcode.Ret, _ ->
      let rsp = reg_of Reg.stack_pointer Width.W64 in
      fun st ab ->
        let v = load_mem st ab stack_slot in
        write_reg st rsp (Int64.add (read_reg st rsp) 8L);
        st.State.pc <- Semantics.mask_code_index ~code_len v
  | (Opcode.Div | Opcode.Idiv), [ src ] -> div_action ~fall i src
  | ( ( Opcode.Add | Opcode.Adc | Opcode.Sub | Opcode.Sbb | Opcode.And
      | Opcode.Or | Opcode.Xor | Opcode.Cmp | Opcode.Test | Opcode.Mov
      | Opcode.Imul | Opcode.Cmov _ | Opcode.Shl | Opcode.Shr | Opcode.Sar
      | Opcode.Rol | Opcode.Ror | Opcode.Movzx | Opcode.Movsx | Opcode.Xchg ),
      [ dst; src ] ) ->
      binop_action ~flags ~fall i dst src
  | (Opcode.Inc | Opcode.Dec | Opcode.Neg | Opcode.Not | Opcode.Setcc _), [ dst ]
    ->
      unop_action ~flags ~fall i dst
  | op, _ ->
      (* Unsupported shapes fault at execution time, like the interpreter:
         a program containing one on a never-executed path still
         compiles. *)
      fun _ _ ->
        invalid_arg
          (Printf.sprintf "Semantics.step: unsupported %s form"
             (Opcode.mnemonic op))

(* ------------------------------------------------------------------ *)
(* Descriptors                                                         *)
(* ------------------------------------------------------------------ *)

let lat_class_of (op : Opcode.t) =
  match op with
  | Opcode.Imul -> Lat_mul
  | Opcode.Div | Opcode.Idiv -> Lat_div
  | Opcode.Jcc _ | Opcode.Jmp | Opcode.JmpInd | Opcode.Call | Opcode.Ret ->
      Lat_branch
  | _ -> Lat_alu

let desc_of (i : Instruction.t) : desc =
  let mem = Option.map (fun (m, w) -> mem_of m w) (Instruction.mem_operand i) in
  let div_width =
    match i.Instruction.opcode with
    | Opcode.Div | Opcode.Idiv -> (
        match Instruction.mem_operand i with
        | Some (_, w) -> w
        | None -> (
            match i.Instruction.operands with
            | [ Operand.Reg (_, w) ] -> w
            | _ -> Width.W64))
    | _ -> Width.W64
  in
  {
    d_inst = i;
    d_serializing = Opcode.is_serializing i.Instruction.opcode;
    d_control_flow = Opcode.is_control_flow i.Instruction.opcode;
    d_loads = Instruction.loads i;
    d_stores = Instruction.stores i;
    d_reads_flags = Opcode.reads_flags i.Instruction.opcode;
    d_writes_flags = Opcode.writes_flags i.Instruction.opcode;
    d_cond = (match i.Instruction.opcode with Opcode.Jcc c -> Some c | _ -> None);
    d_srcs = Array.of_list (List.map Reg.index (Instruction.regs_read i));
    d_dsts = Array.of_list (List.map Reg.index (Instruction.regs_written i));
    d_ports = Array.of_list (Ports.of_instruction i);
    d_lat = lat_class_of i.Instruction.opcode;
    d_div_width = div_width;
    d_mem = mem;
  }

(* ------------------------------------------------------------------ *)
(* Static analyses: straight-line runs and observation liveness        *)
(* ------------------------------------------------------------------ *)

(* One backward pass computes, for every pc:
   - [run_len]: length of the maximal straight-line (plain) run starting
     at pc — no control flow, no serializing instruction;
   - [nostore_len]: ditto, additionally 0 at stores (store-bypass
     contracts need their clause checked at every store). *)
let analyze (descs : desc array) =
  let n = Array.length descs in
  let run_len = Array.make n 0 in
  let nostore_len = Array.make n 0 in
  for pc = n - 1 downto 0 do
    let d = descs.(pc) in
    if not (d.d_serializing || d.d_control_flow) then begin
      run_len.(pc) <- (1 + if pc + 1 < n then run_len.(pc + 1) else 0);
      if not d.d_stores then
        nostore_len.(pc) <- (1 + if pc + 1 < n then nostore_len.(pc + 1) else 0)
    end
  done;
  (run_len, nostore_len)

(* Liveness sets are ints: bit [Reg.index r] for each register, [flag_bit]
   for the flag word, and [effect_bit], which every live-out set holds:
   an instruction with an effect on memory, control flow or faults
   "defines" it, so such an instruction is never dead. *)
let flag_bit = 1 lsl 16
let effect_bit = 1 lsl 17

(* The shapes [compile_raw] turns into an action that touches only the
   registers, the flag word and pc, and never raises. Everything else —
   a memory operand, control flow, LFENCE/MFENCE, DIV/IDIV, a shape the
   action raises on — has an effect. *)
let register_only (i : Instruction.t) =
  match (i.Instruction.opcode, i.Instruction.operands) with
  | Opcode.Xchg, [ Operand.Reg _; Operand.Reg _ ] -> true
  | ( ( Opcode.Add | Opcode.Adc | Opcode.Sub | Opcode.Sbb | Opcode.And
      | Opcode.Or | Opcode.Xor | Opcode.Cmp | Opcode.Test | Opcode.Mov
      | Opcode.Imul | Opcode.Cmov _ | Opcode.Shl | Opcode.Shr | Opcode.Sar
      | Opcode.Rol | Opcode.Ror | Opcode.Movzx | Opcode.Movsx ),
      [ Operand.Reg _; (Operand.Reg _ | Operand.Imm _) ] ) ->
      true
  | (Opcode.Inc | Opcode.Dec | Opcode.Neg | Opcode.Not | Opcode.Setcc _), [ Operand.Reg _ ]
    ->
      true
  | Opcode.Nop, _ -> true
  | _ -> false

(* Emulator-level flag effects. These deliberately differ from the
   architectural tables in [Opcode]: DIV/IDIV are listed as flag writers
   there (architecturally they leave flags undefined) but the emulator
   gives them no flag effect at all. *)
let emu_writes_flags (op : Opcode.t) =
  match op with
  | Opcode.Add | Opcode.Adc | Opcode.Sub | Opcode.Sbb | Opcode.And | Opcode.Or
  | Opcode.Xor | Opcode.Cmp | Opcode.Test | Opcode.Imul | Opcode.Inc
  | Opcode.Dec | Opcode.Neg | Opcode.Shl | Opcode.Shr | Opcode.Sar | Opcode.Rol
  | Opcode.Ror ->
      true
  | _ -> false

(* Writes the whole flag word whatever its old value. ADC/SBB also write
   it whole, but read CF first; INC/DEC keep CF, and shifts and rotates
   keep every flag at count 0, so they merge into the old word. *)
let flag_killer (op : Opcode.t) =
  match op with
  | Opcode.Add | Opcode.Sub | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Cmp
  | Opcode.Test | Opcode.Imul | Opcode.Neg ->
      true
  | _ -> false

let reg_set regs =
  let m = ref 0 in
  for k = 0 to Array.length regs - 1 do
    m := !m lor (1 lsl regs.(k))
  done;
  !m

(* What an instruction writes ([defs]), writes whatever the old value
   ([kills]) and reads ([uses]). A 32/64-bit register destination is
   replaced whole (XCHG replaces both registers); an 8/16-bit one merges
   into the old value, and CMOV and SETcc write their old value back or
   merge into it, so a write that does not kill reads the old value too.
   The same holds for the flag word: ADC/SBB, INC/DEC, shifts and rotates
   read it, and so do its other readers, CMOV, SETcc and Jcc. A memory
   operand's base and index, JmpInd's register, CALL's and RET's RSP and
   a division's divisor, RAX and RDX are among [d_srcs]. *)
let defs_of (d : desc) =
  reg_set d.d_dsts
  lor (if emu_writes_flags d.d_inst.Instruction.opcode then flag_bit else 0)
  lor if register_only d.d_inst then 0 else effect_bit

let kills_of (d : desc) =
  let i = d.d_inst in
  let regs =
    match (i.Instruction.opcode, i.Instruction.operands) with
    | (Opcode.Cmov _ | Opcode.Setcc _), _ -> 0
    | _, Operand.Reg (_, (Width.W32 | Width.W64)) :: _ -> reg_set d.d_dsts
    | _, _ -> 0
  in
  regs lor if flag_killer i.Instruction.opcode then flag_bit else 0

let uses_of (d : desc) ~defs ~kills =
  reg_set d.d_srcs
  lor (defs land lnot (kills lor effect_bit))
  lor if d.d_reads_flags then flag_bit else 0

(* The least fixed point of
     live_in(pc) = live_out(pc)                             if pc is dead
                 = uses(pc) ∪ (live_out(pc) − kills(pc))   otherwise
   where pc is dead when it defines nothing live after it (so it has no
   effect), and live_out(pc) is the union of its successors' live-ins:
   the next pc, both edges of a Jcc, the target of a JMP or CALL, and
   after JmpInd, RET and CALL (which RET returns through) every pc's,
   since their targets are data. Nothing is live after the last pc.
   Starting from nothing live, the sets only grow. A program whose
   branches all go forward and that has no computed target needs one
   backward pass: every successor's live-in is final before its
   predecessors are visited.

   A dead pc's results are read by no observation on any path from it,
   and its inputs only by dead pcs, so an engine may skip it; where the
   flag word is not live after a pc, the pc's flag write may be elided.
   By induction over any execution that does so, every register and the
   flag word hold their exact values wherever they are live: so at every
   observation, at every fault check, and at any pc where a speculative
   exploration or a transient episode starts — liveness at a pc depends
   only on the code after it.

   Returns [dead_len], the length of the stretch of dead pcs starting at
   each pc (0 at a live pc), and whether each live pc writes a flag word
   that is dead after it, both from the last pass (a dead pc's flag
   write needs no variant: no engine runs its action). The per-pc sets
   live in three int arrays; nothing is allocated per pc. *)
let liveness (flat : Program.flat) (descs : desc array) =
  let n = Array.length descs in
  let target = flat.Program.target in
  let defs = Array.make n 0 and kills = Array.make n 0 and uses = Array.make n 0 in
  let one_pass = ref true in
  for pc = 0 to n - 1 do
    let d = descs.(pc) in
    let df = defs_of d and k = kills_of d in
    defs.(pc) <- df;
    kills.(pc) <- k;
    uses.(pc) <- uses_of d ~defs:df ~kills:k;
    match d.d_inst.Instruction.opcode with
    | Opcode.Jcc _ | Opcode.Jmp -> if target.(pc) <= pc then one_pass := false
    | Opcode.Call | Opcode.Ret | Opcode.JmpInd -> one_pass := false
    | _ -> ()
  done;
  let live_in = Array.make (n + 1) 0 in
  let at k = if k >= 0 && k <= n then live_in.(k) else 0 in
  (* the union of every pc's live-in, from the previous pass *)
  let anywhere = ref 0 in
  let live_out pc =
    effect_bit
    lor
    match descs.(pc).d_inst.Instruction.opcode with
    | Opcode.Jcc _ -> live_in.(pc + 1) lor at target.(pc)
    | Opcode.Jmp -> at target.(pc)
    | Opcode.Call -> at target.(pc) lor !anywhere
    | Opcode.JmpInd | Opcode.Ret -> !anywhere
    | _ -> live_in.(pc + 1)
  in
  let dead_len = Array.make n 0 and dead_flags = Array.make n false in
  let again = ref true in
  while !again do
    let changed = ref false and union = ref 0 in
    for pc = n - 1 downto 0 do
      let out = live_out pc in
      let dead = defs.(pc) land out = 0 in
      let li = if dead then out else uses.(pc) lor (out land lnot kills.(pc)) in
      if li <> live_in.(pc) then begin
        live_in.(pc) <- li;
        changed := true
      end;
      union := !union lor li;
      dead_len.(pc) <-
        (if not dead then 0 else if pc + 1 < n then 1 + dead_len.(pc + 1) else 1);
      dead_flags.(pc) <-
        (not dead) && defs.(pc) land flag_bit <> 0 && out land flag_bit = 0
    done;
    if !union <> !anywhere then begin
      anywhere := !union;
      changed := true
    end;
    again := !changed && not !one_pass
  done;
  (dead_len, dead_flags)

(* ------------------------------------------------------------------ *)
(* Timing plan                                                         *)
(* ------------------------------------------------------------------ *)

(* A timing-plain step has a latency fixed per test case and touches
   neither memory, the predictors nor the store buffer: the CPU
   simulator can time a run of them without any per-step decision. *)
let timing_plain (d : desc) =
  (not (d.d_serializing || d.d_control_flow))
  && (match d.d_mem with None -> true | Some _ -> false)
  && match d.d_lat with Lat_div -> false | Lat_alu | Lat_mul | Lat_branch -> true

(* The plan carried by [interpreted] programs: no pc starts a
   timing-plain run, so the simulator takes its per-instruction path at
   every step. *)
let empty_plan = { plain_len = [||]; plain_ports = [||]; port_sums = [||] }

(* One backward pass, like [analyze], after a forward one that collects
   the ports timing-plain instructions use. Suffix sums are kept for those
   ports only: a timing-plain run issues no µop elsewhere, and this keeps
   the array at a few words per instruction (two ports with the current
   port map) instead of one per port. *)
let plan_of (descs : desc array) =
  let n = Array.length descs in
  let used = Array.make Ports.n_ports false in
  for pc = 0 to n - 1 do
    let d = descs.(pc) in
    if timing_plain d then
      for k = 0 to Array.length d.d_ports - 1 do
        used.(d.d_ports.(k)) <- true
      done
  done;
  (* column of each port in [port_sums], or -1 *)
  let column = Array.make Ports.n_ports (-1) and np = ref 0 in
  for p = 0 to Ports.n_ports - 1 do
    if used.(p) then begin
      column.(p) <- !np;
      incr np
    end
  done;
  let np = !np in
  let plain_ports = Array.make np 0 in
  Array.iteri (fun p j -> if j >= 0 then plain_ports.(j) <- p) column;
  let plain_len = Array.make n 0 in
  let port_sums = Array.make ((n + 1) * np) 0 in
  for pc = n - 1 downto 0 do
    let d = descs.(pc) in
    for p = 0 to np - 1 do
      port_sums.((pc * np) + p) <- port_sums.(((pc + 1) * np) + p)
    done;
    let ports = d.d_ports in
    for k = 0 to Array.length ports - 1 do
      let j = column.(ports.(k)) in
      if j >= 0 then port_sums.((pc * np) + j) <- port_sums.((pc * np) + j) + 1
    done;
    if timing_plain d then
      plain_len.(pc) <- (1 + if pc + 1 < n then plain_len.(pc + 1) else 0)
  done;
  { plain_len; plain_ports; port_sums }

(* ------------------------------------------------------------------ *)
(* Construction and execution                                          *)
(* ------------------------------------------------------------------ *)

let of_flat (flat : Program.flat) : t =
  let descs = Array.map desc_of flat.Program.code in
  let run_len, nostore_len = analyze descs in
  let dead_len, dead_flags = liveness flat descs in
  let raws =
    Array.mapi (fun pc i -> compile_raw flat pc i ~flags:true) flat.Program.code
  in
  let fused =
    Array.mapi
      (fun pc i ->
        if dead_flags.(pc) then compile_raw flat pc i ~flags:false else raws.(pc))
      flat.Program.code
  in
  { flat; descs; raws; fused; dead_len; run_len; nostore_len; plan = plan_of descs }

let of_actions (flat : Program.flat) actions =
  let descs = Array.map desc_of flat.Program.code in
  let run_len, nostore_len = analyze descs in
  {
    flat;
    descs;
    raws = actions;
    fused = actions;
    dead_len = Array.make (Array.length descs) 0;
    run_len;
    nostore_len;
    (* The empty plan sends the simulator down its per-instruction path
       at every step. *)
    plan = empty_plan;
  }

let interpreted (flat : Program.flat) : t =
  let raw : raw =
   fun st ab ->
    let o = Semantics.step flat st in
    List.iter
      (fun (a : Semantics.access) ->
        abuf_push ab ~is_store:(a.Semantics.kind = `Store) ~addr:a.Semantics.addr
          ~width:a.Semantics.width ~value:a.Semantics.value)
      o.Semantics.accesses
  in
  of_actions flat (Array.map (fun _ -> raw) flat.Program.code)

let of_program_exn p = of_flat (Program.flatten_exn p)
let length t = Array.length t.descs
let code t = t.flat.Program.code
let target t pc = t.flat.Program.target.(pc)
