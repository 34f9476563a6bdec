let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let splitmix64 x =
  let x = Int64.add x 0x9E3779B97F4A7C15L in
  let x =
    Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xBF58476D1CE4E5B9L
  in
  let x =
    Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94D049BB133111EBL
  in
  Int64.logxor x (Int64.shift_right_logical x 31)

(* 53 high bits -> [0,1) *)
let uniform h = Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.
