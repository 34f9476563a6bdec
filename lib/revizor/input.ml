open Revizor_isa
open Revizor_emu

type t = { seed : int64; entropy : int }

let generate prng ~entropy = { seed = Prng.next prng; entropy }

let generate_many prng ~entropy ~n =
  List.init n (fun _ -> generate prng ~entropy)

let data_words = Layout.data_pages * Layout.page_size / 8

(* Values land in bits 6..11: the cache-line-index bits selected by the
   sandbox masking instrumentation. *)
let value_of sub entropy = Int64.shift_left (Prng.bits sub entropy) 6

let flags_of_raw r =
  Flags.make ~cf:(r land 1 <> 0) ~zf:(r land 2 <> 0) ~sf:(r land 4 <> 0)
    ~o_f:(r land 8 <> 0) ~pf:(r land 16 <> 0) ~af:(r land 32 <> 0)

(* The eager fill, and the reference for the on-demand one: every
   register, the flags and every data word from the boxed [Prng] walk. *)
let apply_eager t (state : State.t) =
  let sub = Prng.create ~seed:t.seed in
  List.iter
    (fun r -> State.set_reg state r Width.W64 (value_of sub t.entropy))
    Reg.gen_pool;
  state.State.flags <-
    flags_of_raw (Int64.to_int (Prng.bits sub (Int.min t.entropy 6)));
  (* Restart the state's count of words filled on access
     ([Memory.words_filled]) at zero: the loop below writes every word,
     so none is left to fill. *)
  Memory.defer state.State.mem ~rows:[||] ~lo:0 ~hi:0 ~bits:0;
  for w = 0 to data_words - 1 do
    Memory.write_data_word state.State.mem ~word:w (value_of sub t.entropy)
  done

(* At entropy <= 16 a draw is [(l land 0xFFFF) * 0xDD1D] masked to the
   entropy: the low 16 bits of the state's low limb [l] after one
   xorshift64 step, times the low 16 bits of xorshift64*'s output
   multiplier, are all the low bits of the product need. The walk below
   steps the state as two unboxed 32-bit limbs, which reproduces
   [Prng.next]'s stream exactly without a boxed Int64. *)
let mask32 = 0xFFFF_FFFF
let mul_lo16 = 0x2545F4914F6CDD1D land 0xFFFF
let pool_offsets = Array.of_list (List.map State.reg_offset Reg.gen_pool)

(* Parity rows for the on-demand data fill ([Memory.defer]). Word [w]'s
   value is drawn from the fill stream's state [w + 1] steps on, and
   only that state's low [entropy] bits reach it. Each of those bits is
   linear over GF(2) in the starting state [s] (see
   {!Prng.transposed_steps}): bit [b] of word [w]'s state is the parity
   of [s land row (w, b)], where [row (w, b) = (Mᵀ)^(w+1) e_b]. The rows
   depend on neither the input nor the program, so each domain builds
   them on its first input, for the value bits in use ([bits] chains of
   1024 transposed steps), and again only for a wider entropy. *)
let rows_key = Domain.DLS.new_key (fun () -> [||])

let rows_for bits =
  let rows = Domain.DLS.get rows_key in
  if Array.length rows >= 2 * data_words * bits then rows
  else begin
    let rows = Array.make (2 * data_words * bits) 0 in
    for b = 0 to bits - 1 do
      let v = ref (Int64.shift_left 1L b) in
      for w = 0 to data_words - 1 do
        v := Prng.transposed_steps !v ~steps:1;
        let r = 2 * ((b * data_words) + w) in
        rows.(r) <- Int64.to_int (Int64.logand !v 0xFFFF_FFFFL);
        rows.(r + 1) <- Int64.to_int (Int64.shift_right_logical !v 32)
      done
    done;
    Domain.DLS.set rows_key rows;
    rows
  end

let apply t (state : State.t) =
  let e = t.entropy in
  if e < 0 || e > 16 then apply_eager t state
  else begin
    (* [Prng.create] remaps a zero seed; only that one allocates. *)
    let s =
      if Int64.equal t.seed 0L then Prng.(state (create ~seed:0L)) else t.seed
    in
    let hi = ref (Int64.to_int (Int64.shift_right_logical s 32))
    and lo = ref (Int64.to_int s land mask32) in
    let vmask = (1 lsl e) - 1 in
    (* Four registers, then FLAGS; [Prng.bits] draws nothing at entropy 0. *)
    for k = 0 to 4 do
      if e > 0 then begin
        let h = !hi and l = !lo in
        (* s ^= s >>> 12 *)
        let l = l lxor (((l lsr 12) lor (h lsl 20)) land mask32)
        and h = h lxor (h lsr 12) in
        (* s ^= s << 25 *)
        let h = h lxor (((h lsl 25) lor (l lsr 7)) land mask32)
        and l = l lxor ((l lsl 25) land mask32) in
        (* s ^= s >>> 27 *)
        hi := h lxor (h lsr 27);
        lo := l lxor (((l lsr 27) lor (h lsl 5)) land mask32)
      end;
      let x = ((!lo land 0xFFFF) * mul_lo16) land vmask in
      if k < 4 then State.set_at state pool_offsets.(k) (Int64.of_int (x lsl 6))
      else state.State.flags <- flags_of_raw (x land 63)
    done;
    Memory.defer state.State.mem ~rows:(rows_for e) ~lo:!lo ~hi:!hi ~bits:e
  end

exception Unprovable

(* Static reachable-word analysis of a flat test program. The input fill
   does not use it (every word is filled on its first access);
   perfbench's arena figures count its words. A data word may be read
   (architecturally or speculatively) only through a sandbox memory
   operand, and the generator's masking instrumentation pins every such
   access: the operand is [sandbox_base + index + disp] with scale 1,
   and the instruction immediately before it is [AND index, mask] with
   a line-aligned mask — so the reachable addresses are exactly
   {L + disp | L submask of mask}.
   The adjacency argument needs the access to be entered only by
   fall-through from its AND: flat branch targets are always block
   starts, so it suffices that the access is not itself a block start.
   Speculative execution preserves this — mispredicted paths still run
   instructions in sequence from a block start or a fall-through point,
   and the AND masks whatever (possibly stale or forwarded) value the
   index register holds on the wrong path.

   Anything outside that shape — CALL/RET (implicit stack words inside
   the data pages), indirect jumps (dynamic targets), a DIV/IDIV memory
   form (its zero-divisor prefix sits between the AND and the access), an
   unmasked or oddly shaped operand — makes the program unprovable
   ([None], a full fill). The plan is derived from the program text
   alone. *)
let fill_plan (flat : Program.flat) : int array option =
  let code = flat.Program.code in
  let n = Array.length code in
  let words = data_words in
  let starts = Array.make (Int.max n 1) false in
  List.iter
    (fun (_, i) -> if i < n then starts.(i) <- true)
    flat.Program.block_starts;
  let marked = Array.make words false in
  let mark_access ~mask ~disp ~bytes =
    let mark_addr l =
      let lo = (l + disp) / 8 and hi = (l + disp + bytes - 1) / 8 in
      (* Addresses past the data words were never filled anyway. *)
      for w = lo to Int.min hi (words - 1) do
        marked.(w) <- true
      done
    in
    mark_addr 0;
    let l = ref mask in
    while !l <> 0 do
      mark_addr !l;
      l := (!l - 1) land mask
    done
  in
  match
    Array.iteri
      (fun i (inst : Instruction.t) ->
        (match inst.Instruction.opcode with
        | Opcode.Call | Opcode.Ret | Opcode.JmpInd -> raise_notrace Unprovable
        | _ -> ());
        match Instruction.mem_operand inst with
        | None -> ()
        | Some (m, w) ->
            let r =
              match m with
              | { Operand.base = Some b; index = Some r; scale = 1; disp }
                when Reg.equal b Reg.sandbox_base
                     && (not (Reg.equal r Reg.sandbox_base))
                     && disp >= 0 ->
                  r
              | _ -> raise_notrace Unprovable
            in
            if i = 0 || starts.(i) then raise_notrace Unprovable;
            let mask =
              match code.(i - 1) with
              | {
               Instruction.opcode = Opcode.And;
               operands = [ Operand.Reg (r', Width.W64); Operand.Imm mask ];
               target = None;
               _;
              }
                when Reg.equal r' r
                     && mask >= 0L
                     && Int64.logand mask 63L = 0L
                     && mask < Int64.of_int (words * 8) ->
                  Int64.to_int mask
              | _ -> raise_notrace Unprovable
            in
            mark_access ~mask ~disp:m.Operand.disp ~bytes:(Width.bits w / 8))
      code
  with
  | exception Unprovable -> None
  | () ->
      (* The executor seeds its fill-buffer model from the last data word
         of every template, so it is always live. *)
      marked.(words - 1) <- true;
      let count =
        Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 marked
      in
      if 2 * count > words then None (* dense plan: a full fill *)
      else begin
        let plan = Array.make count 0 in
        let k = ref 0 in
        Array.iteri
          (fun w m ->
            if m then begin
              plan.(!k) <- w;
              incr k
            end)
          marked;
        Some plan
      end

let to_state t =
  let state = State.create () in
  apply t state;
  state

let templates inputs = Array.of_list (List.map to_state inputs)

let equal (a : t) (b : t) = Int64.equal a.seed b.seed && Int.equal a.entropy b.entropy
