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
   array, the memory operand with its effective-address computation
   pre-resolved to a closure — and (b) the semantic action compiled to an
   OCaml closure (threaded-code style), so the per-step dispatch is one
   indirect call instead of a match cascade.

   The primary execution interface is the allocation-free {!raw} form:
   the action mutates the state and appends its memory accesses to a
   caller-owned reusable {!abuf} instead of consing an access list and an
   outcome record per step.

   On top of the raw actions, [of_flat] performs two static analyses that
   enable basic-block superinstruction execution in the model:

   - [run_len]/[nostore_len]: for every pc, the length of the maximal
     straight-line run starting there (no control flow, no serializing
     instruction; [nostore_len] additionally stops before stores, for
     contracts with store-bypass clauses). A batched walker can execute
     such a run as one fused block without re-checking any speculation
     clause in between.

   - dead-flag elimination: an instruction's flag computation is elided
     in the [fused] action array when, on every path that continues past
     it, the flags are fully overwritten (ADD/SUB/CMP/AND/OR/XOR/TEST/
     IMUL/NEG) before any instruction can observe them. Observers are
     the flag readers (ADC/SBB/CMOV/SETcc/Jcc) plus the partial flag
     writers that merge old bits (INC/DEC preserve CF; shifts and
     rotates preserve everything when the dynamic count is zero). DIV
     and IDIV neither read nor write flags in the emulator. The analysis
     is a suffix property of the straight-line run, so it holds for any
     entry pc into the run.

   A third pass builds the CPU simulator's timing plan ({!plan}): for
   every pc, the length of the maximal timing-plain run starting there
   (no memory operand, no control flow, not serializing, not DIV/IDIV),
   µop suffix sums for each port timing-plain instructions use, and the
   semantic action the simulator's tight loop runs at each timing-plain
   pc.

   [interpreted] builds the same descriptors but keeps the semantic
   action as a call into {!Semantics.step} and carries an empty plan; it
   is the reference the compiled engine is differentially tested against
   (the two must be bit-identical: same traces, same faults, same mutated
   state).

   A compiled program is immutable after construction and holds no
   execution state, so one value is safely shared read-only across
   domains (the parallel model stage). *)

type abuf = {
  mutable ab_len : int;
  mutable ab_store : bool array;
  mutable ab_addr : int64 array;
  mutable ab_width : Width.t array;
  mutable ab_value : int64 array;
}

type raw = State.t -> abuf -> unit

(* Latency classification mirroring [Uarch_config.inst_latency]; the
   uarch layer maps a class to cycles for its configuration once per run
   instead of re-matching the opcode per step. [Lat_div] is resolved
   operand-dependently (the dividend's magnitude) by the caller. *)
type lat_class = Lat_alu | Lat_mul | Lat_div | Lat_branch

type mem_ref = {
  mr_width : Width.t;
  mr_addr : State.t -> int64;  (** pre-resolved effective address *)
  mr_base : int;  (** {!Reg.index} of the base register, or -1 *)
  mr_index : int;  (** {!Reg.index} of the index register, or -1 *)
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

type plan = {
  plain_len : int array;
  plain_ports : int array;
  port_sums : int array;
  plain_steps : raw array;
}

type t = {
  flat : Program.flat;
  descs : desc array;
  raws : raw array;
  fused : raw array;
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
    ab_addr = Array.make 8 0L;
    ab_width = Array.make 8 Width.W64;
    ab_value = Array.make 8 0L;
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
  ab.ab_store <- grow ab.ab_store false;
  ab.ab_addr <- grow ab.ab_addr 0L;
  ab.ab_width <- grow ab.ab_width Width.W64;
  ab.ab_value <- grow ab.ab_value 0L

let[@inline] abuf_push ab ~is_store ~addr ~width ~value =
  let n = ab.ab_len in
  if n = Array.length ab.ab_store then abuf_grow ab;
  ab.ab_store.(n) <- is_store;
  ab.ab_addr.(n) <- addr;
  ab.ab_width.(n) <- width;
  ab.ab_value.(n) <- value;
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
           addr = ab.ab_addr.(k);
           width = ab.ab_width.(k);
           value = ab.ab_value.(k);
         }
        :: acc)
  in
  go (ab.ab_len - 1) []

(* ------------------------------------------------------------------ *)
(* Operand accessors                                                   *)
(* ------------------------------------------------------------------ *)

(* Effective address, specialised on the operand shape present. The
   arithmetic is kept associatively identical to [Semantics.mem_addr]:
   (base + index*scale) + disp over wrapping Int64. *)
let compile_addr (m : Operand.mem) : State.t -> int64 =
  let disp = Int64.of_int m.Operand.disp in
  match (m.Operand.base, m.Operand.index, m.Operand.scale) with
  | Some b, Some x, 1 ->
      let bi = Reg.index b and xi = Reg.index x in
      fun st ->
        Int64.add (Int64.add st.State.regs.(bi) st.State.regs.(xi)) disp
  | Some b, Some x, s ->
      let bi = Reg.index b and xi = Reg.index x and sc = Int64.of_int s in
      fun st ->
        Int64.add
          (Int64.add st.State.regs.(bi) (Int64.mul st.State.regs.(xi) sc))
          disp
  | Some b, None, _ ->
      let bi = Reg.index b in
      fun st -> Int64.add (Int64.add st.State.regs.(bi) 0L) disp
  | None, Some x, s ->
      let xi = Reg.index x and sc = Int64.of_int s in
      fun st -> Int64.add (Int64.mul st.State.regs.(xi) sc) disp
  | None, None, _ -> fun _ -> disp

(* Accesses are recorded only after the memory operation succeeded, so a
   faulting access never appears in the buffer (matching the interpreter,
   whose outcome never materializes on a fault). *)
let[@inline] load (st : State.t) ab addr width =
  let value = Memory.read st.State.mem ~addr width in
  abuf_push ab ~is_store:false ~addr ~width ~value;
  value

let[@inline] store (st : State.t) ab addr width value =
  Memory.write st.State.mem ~addr width value;
  abuf_push ab ~is_store:true ~addr ~width ~value

(* Zero-extended register read at a fixed width. *)
let compile_reg_read r w : State.t -> int64 =
  let i = Reg.index r in
  match w with
  | Width.W64 -> fun st -> st.State.regs.(i)
  | _ ->
      let mask = Width.mask w in
      fun st -> Int64.logand st.State.regs.(i) mask

(* Register write with x86 merge semantics at a fixed width. *)
let compile_reg_write r w : State.t -> int64 -> unit =
  let i = Reg.index r in
  match w with
  | Width.W64 -> fun st v -> st.State.regs.(i) <- v
  | Width.W32 ->
      fun st v -> st.State.regs.(i) <- Int64.logand v 0xFFFF_FFFFL
  | Width.W8 | Width.W16 ->
      let mask = Width.mask w in
      let keep = Int64.lognot mask in
      fun st v ->
        st.State.regs.(i) <-
          Int64.logor (Int64.logand st.State.regs.(i) keep) (Int64.logand v mask)

let bad_dst () : 'a = invalid_arg "Semantics: immediate destination"

(* Source operand read (zero-extended), cf. [Semantics.read_src]. [w] is
   the instruction's operand width, used only for immediates. *)
let compile_read_src w (op : Operand.t) : State.t -> abuf -> int64 =
  match op with
  | Operand.Reg (r, w') ->
      let f = compile_reg_read r w' in
      fun st _ -> f st
  | Operand.Imm v ->
      let c = Word.zext w v in
      fun _ _ -> c
  | Operand.Mem (m, w') ->
      let af = compile_addr m in
      fun st ab -> load st ab (af st) w'

(* Destination read for read-modify-write, cf. [Semantics.read_dst]. *)
let compile_read_dst (op : Operand.t) : State.t -> abuf -> int64 =
  match op with
  | Operand.Reg (r, w) ->
      let f = compile_reg_read r w in
      fun st _ -> f st
  | Operand.Mem (m, w) ->
      let af = compile_addr m in
      fun st ab -> load st ab (af st) w
  | Operand.Imm _ -> fun _ _ -> bad_dst ()

let compile_write_dst (op : Operand.t) : State.t -> abuf -> int64 -> unit =
  match op with
  | Operand.Reg (r, w) ->
      let f = compile_reg_write r w in
      fun st _ v -> f st v
  | Operand.Mem (m, w) ->
      let af = compile_addr m in
      fun st ab v -> store st ab (af st) w (Word.zext w v)
  | Operand.Imm _ -> fun _ _ _ -> bad_dst ()

let operand_width (i : Instruction.t) =
  match List.find_map (fun op -> Operand.width op) i.Instruction.operands with
  | Some w -> w
  | None -> Width.W64

(* ------------------------------------------------------------------ *)
(* Semantic-action compilation                                         *)
(* ------------------------------------------------------------------ *)

(* Each compiled body performs the instruction's register/flag/memory
   effects against [(state, abuf)]; the shared wrapper advances pc.
   [~flags:false] compiles the dead-flag variant: identical register and
   memory effects (same loads and stores, in the same order, faulting at
   the same points) but without computing or writing the flag word. It
   is only ever requested for positions the liveness analysis proved
   unobservable, so eliding it cannot change any trace. *)

let compile_binop ~flags (i : Instruction.t) dst src : State.t -> abuf -> unit =
  let w = operand_width i in
  let rd = compile_read_dst dst in
  let rs = compile_read_src w src in
  let wr = compile_write_dst dst in
  match i.Instruction.opcode with
  | Opcode.Mov -> fun st ab -> wr st ab (rs st ab)
  | Opcode.Add ->
      if flags then fun st ab ->
        let a = rd st ab in
        let b = rs st ab in
        let r = Word.zext w (Int64.add a b) in
        st.State.flags <- Flags.after_add w ~a ~b ~carry_in:false ~r;
        wr st ab r
      else fun st ab ->
        let a = rd st ab in
        let b = rs st ab in
        wr st ab (Word.zext w (Int64.add a b))
  | Opcode.Adc ->
      if flags then fun st ab ->
        let flags = st.State.flags in
        let a = rd st ab in
        let b = rs st ab in
        let c = if Flags.cf flags then 1L else 0L in
        let r = Word.zext w (Int64.add (Int64.add a b) c) in
        st.State.flags <- Flags.after_add w ~a ~b ~carry_in:(Flags.cf flags) ~r;
        wr st ab r
      else fun st ab ->
        let c = if Flags.cf st.State.flags then 1L else 0L in
        let a = rd st ab in
        let b = rs st ab in
        wr st ab (Word.zext w (Int64.add (Int64.add a b) c))
  | Opcode.Sub ->
      if flags then fun st ab ->
        let a = rd st ab in
        let b = rs st ab in
        let r = Word.zext w (Int64.sub a b) in
        st.State.flags <- Flags.after_sub w ~a ~b ~borrow_in:false ~r;
        wr st ab r
      else fun st ab ->
        let a = rd st ab in
        let b = rs st ab in
        wr st ab (Word.zext w (Int64.sub a b))
  | Opcode.Sbb ->
      if flags then fun st ab ->
        let flags = st.State.flags in
        let a = rd st ab in
        let b = rs st ab in
        let c = if Flags.cf flags then 1L else 0L in
        let r = Word.zext w (Int64.sub (Int64.sub a b) c) in
        st.State.flags <- Flags.after_sub w ~a ~b ~borrow_in:(Flags.cf flags) ~r;
        wr st ab r
      else fun st ab ->
        let c = if Flags.cf st.State.flags then 1L else 0L in
        let a = rd st ab in
        let b = rs st ab in
        wr st ab (Word.zext w (Int64.sub (Int64.sub a b) c))
  | Opcode.Cmp ->
      if flags then fun st ab ->
        let a = rd st ab in
        let b = rs st ab in
        let r = Word.zext w (Int64.sub a b) in
        st.State.flags <- Flags.after_sub w ~a ~b ~borrow_in:false ~r
      else fun st ab ->
        (* Loads (and their faults) must still happen, in order. *)
        let _ = rd st ab in
        let _ = rs st ab in
        ()
  | Opcode.And ->
      if flags then fun st ab ->
        let a = rd st ab in
        let b = rs st ab in
        let r = Word.zext w (Int64.logand a b) in
        st.State.flags <- Flags.after_logic w ~r;
        wr st ab r
      else fun st ab ->
        let a = rd st ab in
        let b = rs st ab in
        wr st ab (Word.zext w (Int64.logand a b))
  | Opcode.Or ->
      if flags then fun st ab ->
        let a = rd st ab in
        let b = rs st ab in
        let r = Word.zext w (Int64.logor a b) in
        st.State.flags <- Flags.after_logic w ~r;
        wr st ab r
      else fun st ab ->
        let a = rd st ab in
        let b = rs st ab in
        wr st ab (Word.zext w (Int64.logor a b))
  | Opcode.Xor ->
      if flags then fun st ab ->
        let a = rd st ab in
        let b = rs st ab in
        let r = Word.zext w (Int64.logxor a b) in
        st.State.flags <- Flags.after_logic w ~r;
        wr st ab r
      else fun st ab ->
        let a = rd st ab in
        let b = rs st ab in
        wr st ab (Word.zext w (Int64.logxor a b))
  | Opcode.Test ->
      if flags then fun st ab ->
        let a = rd st ab in
        let b = rs st ab in
        let r = Word.zext w (Int64.logand a b) in
        st.State.flags <- Flags.after_logic w ~r
      else fun st ab ->
        let _ = rd st ab in
        let _ = rs st ab in
        ()
  | Opcode.Imul ->
      if flags then fun st ab ->
        let a = rd st ab in
        let b = rs st ab in
        let sa = Word.sext w a and sb = Word.sext w b in
        let full = Int64.mul sa sb in
        let r = Word.zext w full in
        let full_overflow =
          match w with
          | Width.W64 ->
              sa <> 0L
              && (Int64.div full sa <> sb || (sa = -1L && sb = Int64.min_int))
          | Width.W8 | Width.W16 | Width.W32 -> Word.sext w full <> full
        in
        st.State.flags <- Flags.after_imul w ~full_overflow ~r;
        wr st ab r
      else fun st ab ->
        let a = rd st ab in
        let b = rs st ab in
        wr st ab (Word.zext w (Int64.mul (Word.sext w a) (Word.sext w b)))
  | Opcode.Cmov c -> (
      match dst with
      | Operand.Reg (r, w') ->
          let rold = compile_reg_read r w' in
          fun st ab ->
            let b = rs st ab in
            let old = rold st in
            let v = if Flags.eval_cond st.State.flags c then b else old in
            wr st ab v
      | Operand.Mem _ | Operand.Imm _ ->
          fun _ _ -> invalid_arg "CMOV destination")
  | Opcode.Movzx -> fun st ab -> wr st ab (rs st ab)
  | Opcode.Movsx ->
      let ws = match Operand.width src with Some w' -> w' | None -> w in
      fun st ab -> wr st ab (Word.sext ws (rs st ab))
  | Opcode.Xchg -> (
      match (dst, src) with
      | Operand.Reg (ra, wa), Operand.Reg (rb, _) ->
          let ra_rd = compile_reg_read ra wa
          and rb_rd = compile_reg_read rb wa
          and ra_wr = compile_reg_write ra wa
          and rb_wr = compile_reg_write rb wa in
          fun st _ ->
            let va = ra_rd st and vb = rb_rd st in
            ra_wr st vb;
            rb_wr st va
      | (Operand.Mem _ as mop), Operand.Reg (r, wr')
      | Operand.Reg (r, wr'), (Operand.Mem _ as mop) ->
          let m_rd = compile_read_dst mop and m_wr = compile_write_dst mop in
          let r_rd = compile_reg_read r wr' and r_wr = compile_reg_write r wr' in
          fun st ab ->
            let vm = m_rd st ab in
            let vr = r_rd st in
            m_wr st ab vr;
            r_wr st vm
      | _ -> fun _ _ -> invalid_arg "XCHG operands")
  | Opcode.Rol | Opcode.Ror ->
      let op = if i.Instruction.opcode = Opcode.Rol then `Rol else `Ror in
      let count_mask = if Width.equal w Width.W64 then 63L else 31L in
      let bits = Width.bits w in
      let result a' eff =
        if eff = 0 then a'
        else
          match op with
          | `Rol ->
              Word.zext w
                (Int64.logor (Int64.shift_left a' eff)
                   (Int64.shift_right_logical a' (bits - eff)))
          | `Ror ->
              Word.zext w
                (Int64.logor
                   (Int64.shift_right_logical a' eff)
                   (Int64.shift_left a' (bits - eff)))
      in
      if flags then
        (fun st ab ->
          let flags = st.State.flags in
          let a = rd st ab in
          let raw_count = rs st ab in
          let count = Int64.to_int (Int64.logand raw_count count_mask) in
          let eff = count mod bits in
          let a' = Word.zext w a in
          let r = result a' eff in
          st.State.flags <- Flags.after_rotate w flags ~op ~count ~r;
          if count <> 0 then wr st ab r)
      else
        fun st ab ->
          let a = rd st ab in
          let raw_count = rs st ab in
          let count = Int64.to_int (Int64.logand raw_count count_mask) in
          if count <> 0 then wr st ab (result (Word.zext w a) (count mod bits))
  | Opcode.Shl | Opcode.Shr | Opcode.Sar ->
      let op =
        match i.Instruction.opcode with
        | Opcode.Shl -> `Shl
        | Opcode.Shr -> `Shr
        | _ -> `Sar
      in
      let count_mask = if Width.equal w Width.W64 then 63L else 31L in
      let bits = Width.bits w in
      let result a count =
        match op with
        | `Shl ->
            if count >= bits then 0L
            else Word.zext w (Int64.shift_left (Word.zext w a) count)
        | `Shr ->
            if count >= bits then 0L
            else Int64.shift_right_logical (Word.zext w a) count
        | `Sar ->
            let sa = Word.sext w a in
            let c = Int.min count 63 in
            Word.zext w (Int64.shift_right sa c)
      in
      if flags then
        (fun st ab ->
          let flags = st.State.flags in
          let a = rd st ab in
          let raw_count = rs st ab in
          let count = Int64.to_int (Int64.logand raw_count count_mask) in
          let r = if count = 0 then Word.zext w a else result a count in
          st.State.flags <- Flags.after_shift w flags ~op ~a ~count ~r;
          if count <> 0 then wr st ab r)
      else
        fun st ab ->
          let a = rd st ab in
          let raw_count = rs st ab in
          let count = Int64.to_int (Int64.logand raw_count count_mask) in
          if count <> 0 then wr st ab (result a count)
  | _ -> fun _ _ -> invalid_arg "Semantics.exec_binop"

let compile_unop ~flags (i : Instruction.t) dst : State.t -> abuf -> unit =
  let w = operand_width i in
  let rd = compile_read_dst dst in
  let wr = compile_write_dst dst in
  match i.Instruction.opcode with
  | Opcode.Inc ->
      if flags then fun st ab ->
        let flags = st.State.flags in
        let a = rd st ab in
        let r = Word.zext w (Int64.add a 1L) in
        st.State.flags <- Flags.after_inc w flags ~a ~r;
        wr st ab r
      else fun st ab ->
        let a = rd st ab in
        wr st ab (Word.zext w (Int64.add a 1L))
  | Opcode.Dec ->
      if flags then fun st ab ->
        let flags = st.State.flags in
        let a = rd st ab in
        let r = Word.zext w (Int64.sub a 1L) in
        st.State.flags <- Flags.after_dec w flags ~a ~r;
        wr st ab r
      else fun st ab ->
        let a = rd st ab in
        wr st ab (Word.zext w (Int64.sub a 1L))
  | Opcode.Neg ->
      if flags then fun st ab ->
        let a = rd st ab in
        let r = Word.zext w (Int64.neg a) in
        st.State.flags <- Flags.after_neg w ~a ~r;
        wr st ab r
      else fun st ab ->
        let a = rd st ab in
        wr st ab (Word.zext w (Int64.neg a))
  | Opcode.Not ->
      fun st ab ->
        let a = rd st ab in
        wr st ab (Word.zext w (Int64.lognot a))
  | Opcode.Setcc c ->
      fun st ab ->
        wr st ab (if Flags.eval_cond st.State.flags c then 1L else 0L)
  | _ -> fun _ _ -> invalid_arg "Semantics.exec_unop"

let compile_div (i : Instruction.t) src : State.t -> abuf -> unit =
  let w = operand_width i in
  let rs = compile_read_src w src in
  let rax_rd = compile_reg_read Reg.RAX w
  and rdx_rd = compile_reg_read Reg.RDX w
  and rax_wr = compile_reg_write Reg.RAX w
  and rdx_wr = compile_reg_write Reg.RDX w in
  let signed = i.Instruction.opcode = Opcode.Idiv in
  fun st ab ->
    let divisor = rs st ab in
    let rax = rax_rd st in
    let rdx = rdx_rd st in
    if Word.zext w divisor = 0L then raise Semantics.Division_fault;
    let quotient, remainder =
      if not signed then
        match w with
        | Width.W64 ->
            if rdx <> 0L then raise Semantics.Division_fault
            else (Int64.unsigned_div rax divisor, Int64.unsigned_rem rax divisor)
        | Width.W8 | Width.W16 | Width.W32 ->
            let bits = Width.bits w in
            let dividend = Int64.logor (Int64.shift_left rdx bits) rax in
            let q = Int64.unsigned_div dividend divisor in
            if Int64.unsigned_compare q (Width.mask w) > 0 then
              raise Semantics.Division_fault;
            (q, Int64.unsigned_rem dividend divisor)
      else
        let sd = Word.sext w divisor in
        match w with
        | Width.W64 ->
            let high_ok = rdx = Int64.shift_right rax 63 in
            if not high_ok then raise Semantics.Division_fault;
            if rax = Int64.min_int && sd = -1L then
              raise Semantics.Division_fault;
            (Int64.div rax sd, Int64.rem rax sd)
        | Width.W8 | Width.W16 | Width.W32 ->
            let bits = Width.bits w in
            let dividend = Int64.logor (Int64.shift_left rdx bits) rax in
            let q = Int64.div dividend sd in
            let half = Int64.shift_left 1L (bits - 1) in
            if
              Int64.compare q (Int64.neg half) < 0 || Int64.compare q half >= 0
            then raise Semantics.Division_fault;
            (q, Int64.rem dividend sd)
    in
    rax_wr st quotient;
    rdx_wr st remainder

let compile_raw (flat : Program.flat) pc (i : Instruction.t) ~flags : raw =
  let code_len = Array.length flat.Program.code in
  let fall = pc + 1 in
  let seq (body : State.t -> abuf -> unit) : raw =
   fun st ab ->
    body st ab;
    st.State.pc <- fall
  in
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
      let rd = compile_reg_read r Width.W64 in
      fun st _ -> st.State.pc <- Semantics.mask_code_index ~code_len (rd st)
  | Opcode.Call, _ ->
      let target = flat.Program.target.(pc) in
      let rsp_rd = compile_reg_read Reg.stack_pointer Width.W64
      and rsp_wr = compile_reg_write Reg.stack_pointer Width.W64 in
      let ret_pc = Int64.of_int fall in
      fun st ab ->
        let rsp = Int64.sub (rsp_rd st) 8L in
        rsp_wr st rsp;
        store st ab rsp Width.W64 ret_pc;
        st.State.pc <- target
  | Opcode.Ret, _ ->
      let rsp_rd = compile_reg_read Reg.stack_pointer Width.W64
      and rsp_wr = compile_reg_write Reg.stack_pointer Width.W64 in
      fun st ab ->
        let rsp = rsp_rd st in
        let v = load st ab rsp Width.W64 in
        rsp_wr st (Int64.add rsp 8L);
        st.State.pc <- Semantics.mask_code_index ~code_len v
  | (Opcode.Div | Opcode.Idiv), [ src ] -> seq (compile_div i src)
  | ( ( Opcode.Add | Opcode.Adc | Opcode.Sub | Opcode.Sbb | Opcode.And
      | Opcode.Or | Opcode.Xor | Opcode.Cmp | Opcode.Test | Opcode.Mov
      | Opcode.Imul | Opcode.Cmov _ | Opcode.Shl | Opcode.Shr | Opcode.Sar
      | Opcode.Rol | Opcode.Ror | Opcode.Movzx | Opcode.Movsx | Opcode.Xchg ),
      [ dst; src ] ) ->
      seq (compile_binop ~flags i dst src)
  | (Opcode.Inc | Opcode.Dec | Opcode.Neg | Opcode.Not | Opcode.Setcc _), [ dst ]
    ->
      seq (compile_unop ~flags i dst)
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
  let mem =
    match Instruction.mem_operand i with
    | None -> None
    | Some (m, w) ->
        Some
          {
            mr_width = w;
            mr_addr = compile_addr m;
            mr_base =
              (match m.Operand.base with Some r -> Reg.index r | None -> -1);
            mr_index =
              (match m.Operand.index with Some r -> Reg.index r | None -> -1);
          }
  in
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
(* Static analyses: straight-line runs and dead flags                  *)
(* ------------------------------------------------------------------ *)

(* Emulator-level flag effects. These deliberately differ from the
   architectural tables in [Opcode]: DIV/IDIV are listed as flag writers
   there (architecturally they leave flags undefined) but the emulator
   gives them no flag effect at all, and the partial writers (INC/DEC,
   shifts, rotates) merge old flag bits so they both observe and write. *)
let emu_writes_flags (op : Opcode.t) =
  match op with
  | Opcode.Add | Opcode.Adc | Opcode.Sub | Opcode.Sbb | Opcode.And | Opcode.Or
  | Opcode.Xor | Opcode.Cmp | Opcode.Test | Opcode.Imul | Opcode.Inc
  | Opcode.Dec | Opcode.Neg | Opcode.Shl | Opcode.Shr | Opcode.Sar | Opcode.Rol
  | Opcode.Ror ->
      true
  | _ -> false

(* Full overwrite with no flag read: executing one of these makes the
   incoming flag word unobservable. ADC/SBB overwrite fully but read CF
   first, so they are observers, not killers. *)
let flag_killer (op : Opcode.t) =
  match op with
  | Opcode.Add | Opcode.Sub | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Cmp
  | Opcode.Test | Opcode.Imul | Opcode.Neg ->
      true
  | _ -> false

let flag_observer (op : Opcode.t) =
  Opcode.reads_flags op
  ||
  match op with
  | Opcode.Inc | Opcode.Dec | Opcode.Shl | Opcode.Shr | Opcode.Sar | Opcode.Rol
  | Opcode.Ror ->
      true
  | _ -> false

(* One backward pass computes, for every pc:
   - [run_len]: length of the maximal straight-line (plain) run starting
     at pc — no control flow, no serializing instruction;
   - [nostore_len]: ditto, additionally 0 at stores (store-bypass
     contracts need their clause checked at every store);
   - [dead]: the instruction writes flags in the emulator and the flag
     word it produces is overwritten by a killer before any observer can
     read it, within the same plain run. Deadness of pc depends only on
     the instructions after pc (a suffix property), so it is valid for
     any entry point into the run, including mid-run entry after a
     store-bypass clause. *)
let analyze (descs : desc array) =
  let n = Array.length descs in
  let run_len = Array.make n 0 in
  let nostore_len = Array.make n 0 in
  let dead = Array.make n false in
  (* kill_ahead.(pc): flags live at entry to pc die before observation. *)
  let kill_ahead = Array.make (n + 1) false in
  for pc = n - 1 downto 0 do
    let d = descs.(pc) in
    let plain = not (d.d_serializing || d.d_control_flow) in
    if plain then begin
      run_len.(pc) <- (1 + if pc + 1 < n then run_len.(pc + 1) else 0);
      if not d.d_stores then
        nostore_len.(pc) <- (1 + if pc + 1 < n then nostore_len.(pc + 1) else 0)
    end;
    let op = d.d_inst.Instruction.opcode in
    kill_ahead.(pc) <-
      plain
      && (if flag_observer op then false
          else if flag_killer op then true
          else kill_ahead.(pc + 1));
    dead.(pc) <- plain && emu_writes_flags op && kill_ahead.(pc + 1)
  done;
  (run_len, nostore_len, dead)

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
let empty_plan =
  { plain_len = [||]; plain_ports = [||]; port_sums = [||]; plain_steps = [||] }

(* One backward pass, like [analyze], after a forward one that collects
   the ports timing-plain instructions use. Suffix sums are kept for those
   ports only: a timing-plain run issues no µop elsewhere, and this keeps
   the array at a few words per instruction (two ports with the current
   port map) instead of one per port. [plain_steps.(pc)] is [fused.(pc)]
   when the flag word pc writes is overwritten by a killer before any
   observer *inside the same timing-plain run*, and [raws.(pc)]
   otherwise. This is [analyze]'s liveness with the timing-plain run as
   the horizon: a subset of [dead], so [fused.(pc)] is then the elided
   variant. A simulator that runs every timing-plain run either whole or
   with [raws] thus leaves the loop with the exact flag word. *)
let plan_of (descs : desc array) ~raws ~fused =
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
  let plain_steps = Array.copy raws in
  (* flags live at entry to pc + 1 die inside its timing-plain run *)
  let kill_ahead = ref false in
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
    let op = d.d_inst.Instruction.opcode in
    if timing_plain d then begin
      plain_len.(pc) <- (1 + if pc + 1 < n then plain_len.(pc + 1) else 0);
      if emu_writes_flags op && !kill_ahead then plain_steps.(pc) <- fused.(pc);
      kill_ahead :=
        if flag_observer op then false
        else if flag_killer op then true
        else !kill_ahead
    end
    else kill_ahead := false
  done;
  { plain_len; plain_ports; port_sums; plain_steps }

(* ------------------------------------------------------------------ *)
(* Construction and execution                                          *)
(* ------------------------------------------------------------------ *)

let of_flat (flat : Program.flat) : t =
  let descs = Array.map desc_of flat.Program.code in
  let run_len, nostore_len, dead = analyze descs in
  let raws =
    Array.mapi (fun pc i -> compile_raw flat pc i ~flags:true) flat.Program.code
  in
  let fused =
    Array.mapi
      (fun pc i ->
        if dead.(pc) then compile_raw flat pc i ~flags:false else raws.(pc))
      flat.Program.code
  in
  let plan = plan_of descs ~raws ~fused in
  { flat; descs; raws; fused; run_len; nostore_len; plan }

let interpreted (flat : Program.flat) : t =
  let descs = Array.map desc_of flat.Program.code in
  let run_len, nostore_len, _dead = analyze descs in
  let raw : raw =
   fun st ab ->
    let o = Semantics.step flat st in
    List.iter
      (fun (a : Semantics.access) ->
        abuf_push ab ~is_store:(a.Semantics.kind = `Store) ~addr:a.Semantics.addr
          ~width:a.Semantics.width ~value:a.Semantics.value)
      o.Semantics.accesses
  in
  let raws = Array.map (fun _ -> raw) flat.Program.code in
  {
    flat;
    descs;
    raws;
    (* The interpreted engine never elides flags; the differential suite
       exercises exactly the claim that elision is unobservable. *)
    fused = raws;
    run_len;
    nostore_len;
    (* The empty plan sends the simulator down its per-instruction path
       at every step: the reference its timing loop is tested against. *)
    plan = empty_plan;
  }

let of_program_exn p = of_flat (Program.flatten_exn p)
let length t = Array.length t.descs
let code t = t.flat.Program.code
let target t pc = t.flat.Program.target.(pc)
