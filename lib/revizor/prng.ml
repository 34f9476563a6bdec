type t = { mutable s : int64 }

let normalize seed = if seed = 0L then 0x9E3779B97F4A7C15L else seed
let create ~seed = { s = normalize seed }
let copy t = { s = t.s }

let next t =
  let s = t.s in
  let s = Int64.logxor s (Int64.shift_right_logical s 12) in
  let s = Int64.logxor s (Int64.shift_left s 25) in
  let s = Int64.logxor s (Int64.shift_right_logical s 27) in
  t.s <- s;
  Int64.mul s 0x2545F4914F6CDD1DL

let bits t n =
  if n <= 0 then 0L
  else Int64.logand (next t) (Int64.sub (Int64.shift_left 1L (min n 63)) 1L)

let int t n =
  if n <= 0 then invalid_arg "Prng.int";
  Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int n))

let bool t = Int64.logand (next t) 1L = 1L

let choose t = function
  | [] -> invalid_arg "Prng.choose: empty list"
  | l -> List.nth l (int t (List.length l))

let split t = create ~seed:(next t)

(* Checkpoint support: the whole generator is its 64-bit state word, so a
   campaign snapshot can capture and restore the exact stream position.
   [normalize] only remaps 0, which xorshift64* never reaches from a
   nonzero state, so restoring is lossless. *)
let state t = t.s
let of_state s = { s = normalize s }
let set_state t s = t.s <- normalize s

(* The raw xorshift64 state transition (the three shift-xor lines of
   [next] without the output multiply): the forward map that
   [transposed_steps] below is the transpose of. *)
let xorshift_step s =
  let s = Int64.logxor s (Int64.shift_right_logical s 12) in
  let s = Int64.logxor s (Int64.shift_left s 25) in
  Int64.logxor s (Int64.shift_right_logical s 27)

(* The transition is linear over GF(2): it is M = (I + R27)(I + L25)
   (I + R12), R/L the right/left shift matrices. Its transpose reverses
   the factors and swaps the shift directions, since the transpose of a
   right shift is the left shift by the same amount. Bit b of M^k s is
   the row e_b^T M^k against s: the parity of
   [transposed_steps (1 lsl b) ~steps:k land s]. The loop keeps [v]
   unboxed; only the result is boxed. *)
let transposed_steps v ~steps =
  let v = ref v in
  for _ = 1 to steps do
    let x = !v in
    let x = Int64.logxor x (Int64.shift_left x 27) in
    let x = Int64.logxor x (Int64.shift_right_logical x 25) in
    v := Int64.logxor x (Int64.shift_left x 12)
  done;
  !v

(* Splitmix64 finalizer: a strong 64-bit bijective mixer. Used to build
   keyed streams — a draw addressed by coordinates rather than by its
   position in a sequential stream — which is what makes the parallel
   executor's noise injection independent of domain count and execution
   order. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let golden = 0x9E3779B97F4A7C15L

let derive key coords =
  let acc =
    List.fold_left
      (fun acc c -> mix64 (Int64.add (Int64.mul acc golden) c))
      (mix64 key) coords
  in
  of_state acc
