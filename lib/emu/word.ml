open Revizor_isa

type t = int64

let[@inline] zext w v = Int64.logand v (Width.mask w)

let[@inline] sext w v =
  let shift = 64 - Width.bits w in
  Int64.shift_right (Int64.shift_left v shift) shift

let[@inline] sign_set w v = Int64.logand v (Width.sign_bit w) <> 0L

let parity_even v =
  let b = Int64.to_int (Int64.logand v 0xFFL) in
  let rec count n acc = if n = 0 then acc else count (n lsr 1) (acc + (n land 1)) in
  count b 0 mod 2 = 0

let[@inline] merge w ~old v =
  match w with
  | Width.W64 -> v
  | Width.W32 -> zext Width.W32 v
  | Width.W16 | Width.W8 ->
      Int64.logor (Int64.logand old (Int64.lognot (Width.mask w))) (zext w v)

let[@inline] ult a b = Int64.unsigned_compare a b < 0
let[@inline] ule a b = Int64.unsigned_compare a b <= 0