(* Fixed-width bitset over the observation domain [0, 128).

   Traces are the single most-executed data structure of the pipeline:
   every probe, every noise flip, every analyzer pair comparison and every
   swap-check goes through [union]/[inter]/[subset]/[comparable]/[equal].
   The previous balanced-tree representation (Set.Make (Int)) made each of
   those a tree walk with allocation; here they are 2-4 machine logical
   ops on immutable native-int words.

   Layout: three 63-bit OCaml ints cover bits 0..62 (w0), 63..125 (w1) and
   126..127 (w2). 128 bits is exactly the largest trace domain in use
   (Attack.trace_domain: 64 Prime+Probe sets, 128 Flush/Evict+Reload
   lines, 64 port-contention buckets). *)

type t = { w0 : int; w1 : int; w2 : int }

let width = 128

let empty = { w0 = 0; w1 = 0; w2 = 0 }

let check i =
  if i < 0 || i >= width then
    invalid_arg (Printf.sprintf "Htrace: observation %d outside [0, %d)" i width)

let singleton i =
  check i;
  if i < 63 then { empty with w0 = 1 lsl i }
  else if i < 126 then { empty with w1 = 1 lsl (i - 63) }
  else { empty with w2 = 1 lsl (i - 126) }

let add i t =
  check i;
  if i < 63 then { t with w0 = t.w0 lor (1 lsl i) }
  else if i < 126 then { t with w1 = t.w1 lor (1 lsl (i - 63)) }
  else { t with w2 = t.w2 lor (1 lsl (i - 126)) }

let mem i t =
  i >= 0 && i < width
  &&
  if i < 63 then t.w0 land (1 lsl i) <> 0
  else if i < 126 then t.w1 land (1 lsl (i - 63)) <> 0
  else t.w2 land (1 lsl (i - 126)) <> 0

let of_list l = List.fold_left (fun acc i -> add i acc) empty l
let union a b = { w0 = a.w0 lor b.w0; w1 = a.w1 lor b.w1; w2 = a.w2 lor b.w2 }
let inter a b = { w0 = a.w0 land b.w0; w1 = a.w1 land b.w1; w2 = a.w2 land b.w2 }

let diff a b =
  {
    w0 = a.w0 land lnot b.w0;
    w1 = a.w1 land lnot b.w1;
    w2 = a.w2 land lnot b.w2;
  }

let subset a b =
  a.w0 land lnot b.w0 = 0 && a.w1 land lnot b.w1 = 0 && a.w2 land lnot b.w2 = 0

let equal a b = a.w0 = b.w0 && a.w1 = b.w1 && a.w2 = b.w2
let is_empty t = t.w0 = 0 && t.w1 = 0 && t.w2 = 0
let comparable a b = subset a b || subset b a

(* Any total order works: no caller depends on the ordering itself. *)
let compare a b =
  let c = Int.compare a.w0 b.w0 in
  if c <> 0 then c
  else
    let c = Int.compare a.w1 b.w1 in
    if c <> 0 then c else Int.compare a.w2 b.w2

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let cardinal t = popcount t.w0 + popcount t.w1 + popcount t.w2

let iter_word f base w =
  let w = ref w in
  while !w <> 0 do
    let low = !w land - !w in
    (* index of the lowest set bit *)
    let rec idx bit n = if bit = 1 then n else idx (bit lsr 1) (n + 1) in
    f (base + idx low 0);
    w := !w land lnot low
  done

let iter f t =
  iter_word f 0 t.w0;
  iter_word f 63 t.w1;
  iter_word f 126 t.w2

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

(* k-th smallest element without materializing the element list: walk the
   three words lowest-bit-first, counting down. *)
let nth t k =
  if k < 0 || k >= cardinal t then
    invalid_arg (Printf.sprintf "Htrace.nth: index %d out of bounds" k);
  let k = ref k in
  let found = ref (-1) in
  (try
     iter
       (fun i ->
         if !k = 0 then begin
           found := i;
           raise Exit
         end
         else decr k)
       t
   with Exit -> ());
  !found

let max_elt_opt t =
  fold (fun i _ -> Some i) t None

let pp fmt t =
  let width = match max_elt_opt t with Some m when m >= 64 -> 128 | _ -> 64 in
  for i = 0 to width - 1 do
    Format.pp_print_char fmt (if mem i t then '1' else '0')
  done

(* The observations [0, n): word k holds the bits [63k, 63k + 63). *)
let below n =
  let word k =
    let m = n - (63 * k) in
    if m <= 0 then 0 else if m >= 63 then -1 else (1 lsl m) - 1
  in
  { w0 = word 0; w1 = word 1; w2 = word 2 }

(* Threshold planes: per slot, plane j (1 <= j <= depth) holds the
   observations seen in at least j of the traces added to the slot since
   the last [reset]. Adding a trace h updates the planes from the top,
   P_j <- P_j | (P_(j-1) & h) for j = depth down to 2, then P_1 <- P_1 | h,
   so an observation reaches plane j at its j-th occurrence. The planes
   are three words each in one flat int array, slot-major, updated in
   place: an add is 3 x depth word operations whatever the trace holds,
   and allocates nothing. *)
module Planes = struct
  type nonrec t = {
    mutable words : int array;
    mutable depth : int;
    mutable everything : t;  (* the result when the threshold is <= 0 *)
  }

  let create () = { words = [||]; depth = 0; everything = empty }

  let reset p ~slots ~threshold ~domain =
    let depth = Int.max 0 threshold in
    let len = slots * depth * 3 in
    if Array.length p.words < len then
      p.words <- Array.make (Int.max len (2 * Array.length p.words)) 0
    else Array.fill p.words 0 len 0;
    p.depth <- depth;
    p.everything <- (if depth = 0 then below domain else empty)

  let add p slot h =
    let d = p.depth in
    if d > 0 then begin
      let w = p.words and base = slot * d * 3 in
      for j = d - 1 downto 1 do
        let hi = base + (3 * j) and lo = base + (3 * (j - 1)) in
        w.(hi) <- w.(hi) lor (w.(lo) land h.w0);
        w.(hi + 1) <- w.(hi + 1) lor (w.(lo + 1) land h.w1);
        w.(hi + 2) <- w.(hi + 2) lor (w.(lo + 2) land h.w2)
      done;
      w.(base) <- w.(base) lor h.w0;
      w.(base + 1) <- w.(base + 1) lor h.w1;
      w.(base + 2) <- w.(base + 2) lor h.w2
    end

  let result p slot =
    let d = p.depth in
    if d = 0 then p.everything
    else
      let top = 3 * ((slot * d) + d - 1) in
      let w0 = p.words.(top) and w1 = p.words.(top + 1) and w2 = p.words.(top + 2) in
      if w0 lor w1 lor w2 = 0 then empty else { w0; w1; w2 }
end
