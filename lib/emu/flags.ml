open Revizor_isa

(* The flag word is the RFLAGS image itself: one immediate int, so a flag
   write is a plain field store and the rules below build their result
   with a few ors, allocating nothing. *)
type t = int

let cf_bit = 0x1
let pf_bit = 0x4
let af_bit = 0x10
let zf_bit = 0x40
let sf_bit = 0x80
let of_bit = 0x800
let status_bits = cf_bit lor pf_bit lor af_bit lor zf_bit lor sf_bit lor of_bit

let empty = 0
let[@inline] bit b mask = if b then mask else 0

let make ~cf ~pf ~af ~zf ~sf ~o_f =
  bit cf cf_bit lor bit pf pf_bit lor bit af af_bit lor bit zf zf_bit
  lor bit sf sf_bit lor bit o_f of_bit

let[@inline] cf t = t land cf_bit <> 0
let[@inline] pf t = t land pf_bit <> 0
let[@inline] af t = t land af_bit <> 0
let[@inline] zf t = t land zf_bit <> 0
let[@inline] sf t = t land sf_bit <> 0
let[@inline] o_f t = t land of_bit <> 0

(* SF (bit 7) differs from OF (bit 11). *)
let[@inline] sf_ne_of t = ((t lsr 7) lxor (t lsr 11)) land 1 <> 0

let eval_cond t = function
  | Cond.O -> o_f t
  | Cond.NO -> not (o_f t)
  | Cond.B -> cf t
  | Cond.AE -> not (cf t)
  | Cond.Z -> zf t
  | Cond.NZ -> not (zf t)
  | Cond.BE -> t land (cf_bit lor zf_bit) <> 0
  | Cond.A -> t land (cf_bit lor zf_bit) = 0
  | Cond.S -> sf t
  | Cond.NS -> not (sf t)
  | Cond.P -> pf t
  | Cond.NP -> not (pf t)
  | Cond.L -> sf_ne_of t
  | Cond.GE -> not (sf_ne_of t)
  | Cond.LE -> zf t || sf_ne_of t
  | Cond.G -> not (zf t || sf_ne_of t)

let to_word t = Int64.of_int t
let of_word w = Int64.to_int w land status_bits

(* PF of every low result byte: [pf_bit] when its popcount is even. *)
let parity_table =
  String.init 256 (fun b ->
      if Word.parity_even (Int64.of_int b) then Char.chr pf_bit else '\000')

(* ZF, SF and PF of a result: the part every full update shares. *)
let[@inline] result_bits w r =
  bit (Word.zext w r = 0L) zf_bit
  lor bit (Word.sign_set w r) sf_bit
  lor Char.code (String.unsafe_get parity_table (Int64.to_int r land 0xFF))

(* AF is bit 4 of [a xor b xor r], in the same position as in RFLAGS. *)
let[@inline] af_of a b r =
  Int64.to_int (Int64.logand (Int64.logxor (Int64.logxor a b) r) 0x10L)

let[@inline] after_add w ~a ~b ~carry_in ~r =
  let open Word in
  let a = zext w a and b = zext w b and r = zext w r in
  let cf =
    match w with
    | Width.W64 -> if carry_in then ule r a else ult r a
    | _ ->
        let full = Int64.add (Int64.add a b) (if carry_in then 1L else 0L) in
        full <> r
  in
  let o_f =
    Int64.logand
      (Int64.logand (Int64.logxor a r) (Int64.logxor b r))
      (Width.sign_bit w)
    <> 0L
  in
  result_bits w r lor bit cf cf_bit lor bit o_f of_bit lor af_of a b r

let[@inline] after_sub w ~a ~b ~borrow_in ~r =
  let open Word in
  let a = zext w a and b = zext w b and r = zext w r in
  let cf = if borrow_in then ule a b else ult a b in
  let o_f =
    Int64.logand
      (Int64.logand (Int64.logxor a b) (Int64.logxor a r))
      (Width.sign_bit w)
    <> 0L
  in
  result_bits w r lor bit cf cf_bit lor bit o_f of_bit lor af_of a b r

let[@inline] after_logic w ~r = result_bits w r

let[@inline] after_inc w t ~a ~r =
  after_add w ~a ~b:1L ~carry_in:false ~r land lnot cf_bit lor (t land cf_bit)

let[@inline] after_dec w t ~a ~r =
  after_sub w ~a ~b:1L ~borrow_in:false ~r land lnot cf_bit lor (t land cf_bit)

let[@inline] after_neg w ~a ~r =
  after_sub w ~a:0L ~b:a ~borrow_in:false ~r land lnot cf_bit
  lor bit (Word.zext w a <> 0L) cf_bit

let[@inline] after_imul w ~full_overflow ~r =
  (* x86 leaves SF defined, ZF/PF/AF undefined after IMUL; we keep the
     deterministic result-derived values. *)
  result_bits w r lor bit full_overflow (cf_bit lor of_bit)

let[@inline] after_shift w t ~op ~a ~count ~r =
  if count = 0 then t
  else
    let bits = Width.bits w in
    let a = Word.zext w a in
    let cf =
      match op with
      | `Shl ->
          if count > bits then false
          else Int64.logand (Int64.shift_right_logical a (bits - count)) 1L = 1L
      | `Shr | `Sar ->
          if count > bits then op = `Sar && Word.sign_set w a
          else Int64.logand (Int64.shift_right_logical a (count - 1)) 1L = 1L
    in
    let o_f =
      match op with
      | `Shl -> Word.sign_set w r <> cf
      | `Shr -> Word.sign_set w a
      | `Sar -> false
    in
    result_bits w r lor bit cf cf_bit lor bit o_f of_bit

let[@inline] after_rotate w t ~op ~count ~r =
  if count = 0 then t
  else
    (* No local [bit_of] helper: a closure over [r] would box it. *)
    let msb = Word.sign_set w r in
    let cf = match op with `Rol -> Int64.logand r 1L = 1L | `Ror -> msb in
    let o_f =
      match op with
      | `Rol -> msb <> cf
      | `Ror ->
          msb
          <> (Int64.logand (Int64.shift_right_logical r (Width.bits w - 2)) 1L
             = 1L)
    in
    t land lnot (cf_bit lor of_bit) lor bit cf cf_bit lor bit o_f of_bit

let pp fmt t =
  let f name b = if b then name else "-" in
  Format.fprintf fmt "[%s%s%s%s%s%s]" (f "C" (cf t)) (f "P" (pf t)) (f "A" (af t))
    (f "Z" (zf t)) (f "S" (sf t)) (f "O" (o_f t))

let equal = Int.equal
