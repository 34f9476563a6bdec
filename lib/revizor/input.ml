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

let flags_of sub entropy =
  let raw = Prng.bits sub (min entropy 6) in
  let b n = Int64.logand (Int64.shift_right_logical raw n) 1L = 1L in
  {
    Flags.cf = b 0;
    zf = b 1;
    sf = b 2;
    o_f = b 3;
    pf = b 4;
    af = b 5;
  }

(* The data-word fill dominates input materialization: 1024 words × 8
   bytes per input, ~50+ inputs per test case. Without flambda every
   [Prng.next] round-trips through boxed Int64 arithmetic, so the hot
   path below simulates xorshift64* on two unboxed 32-bit native-int
   limbs and writes through [Bytes.set_uint16_le]. The limb recurrence
   reproduces the generator's bit stream exactly, and because a data
   word is [bits entropy << 6] with entropy ≤ 16, only the low 16 bits
   of the final [* 0x2545F4914F6CDD1D] multiply can reach the value —
   one untagged 16×16-bit multiply replaces the boxed 64-bit one.
   Differentially verified against [Prng.bits] (and guarded by the
   compiled-vs-interpreted suites downstream). *)
let mask32 = 0xFFFFFFFF

(* Unchecked 16-bit store: the fill loop writes fixed offsets [0, 8*words)
   into a buffer whose length the caller guarantees, so the per-store
   bounds checks of [Bytes.set_uint16_le] are pure overhead. The %
   primitive stores in native byte order; fall back to the checked
   little-endian accessor on big-endian platforms. *)
external unsafe_set_16 : bytes -> int -> int -> unit = "%caml_bytes_set16u"

let[@inline] set16_le buf off v =
  if Sys.big_endian then Bytes.set_uint16_le buf off v
  else unsafe_set_16 buf off v

let fill_words_fast mem ~state ~entropy ~hi_zero ~mid_zero ~words =
  let buf = Memory.raw mem in
  (* One bounds check for the whole fill instead of one per store. *)
  if 8 * words > Bytes.length buf then invalid_arg "Input.fill_words_fast";
  (* With entropy ≤ 10 the shifted value never reaches past bit 15, so
     bytes 2..3 are written as zero too — skippable on the same caller
     guarantee as the high half. *)
  let skip_mid = mid_zero && entropy <= 10 in
  let hi = ref (Int64.to_int (Int64.shift_right_logical state 32))
  and lo = ref (Int64.to_int (Int64.logand state 0xFFFF_FFFFL)) in
  let mul_lo16 = 0x2545F4914F6CDD1D land 0xFFFF in
  let vmask = (1 lsl entropy) - 1 in
  for w = 0 to words - 1 do
    (* s ^= s >>> 12 *)
    let h = !hi and l = !lo in
    let l = l lxor (((l lsr 12) lor (h lsl 20)) land mask32)
    and h = h lxor (h lsr 12) in
    (* s ^= s << 25 *)
    let h = h lxor (((h lsl 25) lor (l lsr 7)) land mask32)
    and l = l lxor ((l lsl 25) land mask32) in
    (* s ^= s >>> 27 *)
    let l = l lxor (((l lsr 27) lor (h lsl 5)) land mask32)
    and h = h lxor (h lsr 27) in
    hi := h;
    lo := l;
    (* low 16 bits of s * 0x2545F4914F6CDD1D, masked to [entropy] bits,
       shifted into the cache-line-index window (bits 6..21) *)
    let v = ((l land 0xFFFF) * mul_lo16) land vmask in
    let off = w * 8 in
    set16_le buf off ((v lsl 6) land 0xFFFF);
    if not skip_mid then set16_le buf (off + 2) (v lsr 10);
    (* With entropy ≤ 16 the value never reaches past bit 21, so bytes
       4..7 of every data word are written as zero. When the caller
       guarantees they are zero already ([hi_zero]), skip the stores —
       half the writes of an 8 KiB fill. *)
    if not hi_zero then begin
      set16_le buf (off + 4) 0;
      set16_le buf (off + 6) 0
    end
  done

(* Sparse fill as a linear map. Word [w]'s value is drawn from the fill
   stream's state [w + 1] steps on, and only that state's low [entropy]
   bits reach it: the low bits of a product depend only on the low bits
   of its factors. Each of those bits is linear over GF(2) in the
   starting state (see {!Prng.transposed_steps}): bit [b] of word [w]'s
   state is the parity of [s land row (w, b)], where
   [row (w, b) = (Mᵀ)^(w+1) e_b]. The rows depend on the plan, not on
   the input, so they are built once per test case ([bits] chains of at
   most 1024 transposed steps), and each input's fill is then
   [|plan| * entropy] independent masked parities plus the stores: no
   walk and no allocation. Walking the stream to each plan word instead
   is one serial dependency chain, bound by latency however the state is
   represented.

   The plan is copied in and validated by [set_plan], so every word the
   fill stores to is a data word, whatever the caller does to its array
   afterwards. *)
type sparse = {
  mutable words : int array;  (* plan words in [0, n), ascending *)
  mutable n : int;
  mutable bits : int;
  mutable rows : int array;
      (* row (k, b) of plan word [words.(k)] and value bit [b < bits] as
         two 32-bit limbs: low half at [2 * (k * bits + b)], high half
         right after it *)
}

let sparse () = { words = [||]; n = 0; bits = 0; rows = [||] }

let set_plan sp plan ~bits =
  if bits < 0 || bits > 16 then invalid_arg "Input.set_plan";
  let n = Array.length plan in
  for k = 0 to n - 1 do
    let w = plan.(k) in
    if w < 0 || w >= data_words || (k > 0 && w <= plan.(k - 1)) then
      invalid_arg "Input.set_plan"
  done;
  if Array.length sp.words < n then sp.words <- Array.make n 0;
  Array.blit plan 0 sp.words 0 n;
  if Array.length sp.rows < 2 * n * bits then
    sp.rows <- Array.make (2 * n * bits) 0;
  let rows = sp.rows in
  for b = 0 to bits - 1 do
    let v = ref (Int64.shift_left 1L b) and pos = ref 0 in
    for k = 0 to n - 1 do
      let w = plan.(k) in
      v := Prng.transposed_steps !v ~steps:(w + 1 - !pos);
      pos := w + 1;
      let r = 2 * ((k * bits) + b) in
      rows.(r) <- Int64.to_int (Int64.logand !v 0xFFFF_FFFFL);
      rows.(r + 1) <- Int64.to_int (Int64.shift_right_logical !v 32)
    done
  done;
  sp.n <- n;
  sp.bits <- bits

let fill_words_sparse mem ~state ~entropy ~hi_zero ~mid_zero sp =
  let buf = Memory.raw mem in
  if entropy > sp.bits || 8 * data_words > Bytes.length buf then
    invalid_arg "Input.fill_words_sparse";
  let slo = Int64.to_int (Int64.logand state 0xFFFF_FFFFL)
  and shi = Int64.to_int (Int64.shift_right_logical state 32) in
  let mul_lo16 = 0x2545F4914F6CDD1D land 0xFFFF in
  let vmask = (1 lsl entropy) - 1 in
  let skip_mid = mid_zero && entropy <= 10 in
  let rows = sp.rows and words = sp.words and stride = 2 * sp.bits in
  for k = 0 to sp.n - 1 do
    let low = ref 0 in
    for b = 0 to entropy - 1 do
      let r = (k * stride) + (2 * b) in
      let x = (rows.(r) land slo) lxor (rows.(r + 1) land shi) in
      let x = x lxor (x lsr 16) in
      let x = x lxor (x lsr 8) in
      let x = x lxor (x lsr 4) in
      (* 0x6996: bit i is the parity of the nibble i *)
      low := !low lor (((0x6996 lsr (x land 0xF)) land 1) lsl b)
    done;
    let v = (!low * mul_lo16) land vmask in
    let off = words.(k) * 8 in
    set16_le buf off ((v lsl 6) land 0xFFFF);
    if not skip_mid then set16_le buf (off + 2) (v lsr 10);
    if not hi_zero then begin
      set16_le buf (off + 4) 0;
      set16_le buf (off + 6) 0
    end
  done

exception Unprovable

(* Static reachable-word analysis of a flat test program, justifying the
   sparse fill. A data word may be read (architecturally or speculatively)
   only through a sandbox memory operand, and the generator's masking
   instrumentation pins every such access: the operand is
   [sandbox_base + index + disp] with scale 1, and the instruction
   immediately before it is [AND index, mask] with a line-aligned mask —
   so the reachable addresses are exactly {L + disp | L submask of mask}.
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
   unmasked or oddly shaped operand — makes the program unprovable and
   the caller falls back to the full fill. Correctness never depends on
   the generator's conventions: the plan is derived from the program
   text alone. *)
let fill_plan (flat : Program.flat) : int array option =
  let code = flat.Program.code in
  let n = Array.length code in
  let words = data_words in
  let starts = Array.make (max n 1) false in
  List.iter
    (fun (_, i) -> if i < n then starts.(i) <- true)
    flat.Program.block_starts;
  let marked = Array.make words false in
  let mark_access ~mask ~disp ~bytes =
    let mark_addr l =
      let lo = (l + disp) / 8 and hi = (l + disp + bytes - 1) / 8 in
      (* Addresses past the data words were never filled anyway. *)
      for w = lo to min hi (words - 1) do
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
      if 2 * count > words then None
        (* dense plan: the unboxed full fill is cheaper per word *)
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

let apply ?(data_hi_zero = false) ?(data_mid_zero = false) ?sparse t
    (state : State.t) =
  let sub = Prng.create ~seed:t.seed in
  List.iter
    (fun r -> State.set_reg state r Width.W64 (value_of sub t.entropy))
    Reg.gen_pool;
  state.State.flags <- flags_of sub t.entropy;
  if t.entropy >= 0 && t.entropy <= 16 then begin
    match sparse with
    | Some sp ->
        fill_words_sparse state.State.mem ~state:(Prng.state sub)
          ~entropy:t.entropy ~hi_zero:data_hi_zero ~mid_zero:data_mid_zero sp
    | None ->
        fill_words_fast state.State.mem ~state:(Prng.state sub)
          ~entropy:t.entropy ~hi_zero:data_hi_zero ~mid_zero:data_mid_zero
          ~words:data_words
  end
  else
    (* [sparse] is ignored: the full fill is a safe superset and the slow
       path is not worth a sparse variant. *)
    (* Aligned word writes by offset: this fills 8 KiB per input per test
       case, so it skips the [Memory.write] Int64 address arithmetic. *)
    for w = 0 to data_words - 1 do
      Memory.write_data_word state.State.mem ~word:w (value_of sub t.entropy)
    done

let to_state t =
  let state = State.create () in
  (* Fresh states are all-zero, so the high-half (and, at low entropy,
     mid-byte) stores are redundant. *)
  apply ~data_hi_zero:true ~data_mid_zero:true t state;
  state

let templates inputs = Array.of_list (List.map to_state inputs)

let equal (a : t) (b : t) = a = b
let pp fmt t = Format.fprintf fmt "input(seed=0x%Lx, entropy=%d)" t.seed t.entropy
