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
   [next] without the output multiply). Exposed so the input-fill fast
   paths can advance the stream without drawing, and as the linear map
   that [jump] exponentiates. *)
let xorshift_step s =
  let s = Int64.logxor s (Int64.shift_right_logical s 12) in
  let s = Int64.logxor s (Int64.shift_left s 25) in
  Int64.logxor s (Int64.shift_right_logical s 27)

(* O(log k) stream jump. The state transition is linear over GF(2) — each
   output bit is a xor of input bits — so advancing k steps is
   multiplication by the k-th power of the 64×64 transition matrix M.
   Matrices are stored column-wise (column j = image of the j-th basis
   state, one int64 per column); applying one costs at most 64 xors, and
   M^(2^i) for i = 0..10 is precomputed at module initialisation by
   repeated squaring — eagerly, because a lazy table first forced by two
   domains at once raises [CamlinternalLazy.Undefined]. Sparse input
   fills use this to skip the PRNG over runs of data words the test
   program provably never reads. *)
let apply_mat cols s =
  let acc = ref 0L in
  for j = 0 to 63 do
    (* Branch-free: the bits of [s] are random, so a test-and-xor would
       mispredict on every other column. *)
    let bit = Int64.logand (Int64.shift_right_logical s j) 1L in
    acc := Int64.logxor !acc (Int64.logand cols.(j) (Int64.neg bit))
  done;
  !acc

let jump_mats =
  let m1 = Array.init 64 (fun j -> xorshift_step (Int64.shift_left 1L j)) in
  let square m = Array.map (fun col -> apply_mat m col) m in
  let mats = Array.make 11 m1 in
  for i = 1 to 10 do
    mats.(i) <- square mats.(i - 1)
  done;
  mats

let jump s ~steps =
  if steps < 0 || steps >= 2048 then invalid_arg "Prng.jump";
  let s = ref s in
  for i = 0 to 10 do
    if steps land (1 lsl i) <> 0 then s := apply_mat jump_mats.(i) !s
  done;
  !s

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
