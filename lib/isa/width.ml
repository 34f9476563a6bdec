type t = W8 | W16 | W32 | W64

(* Inline: every emulated memory access asks for its width in bytes. *)
let[@inline] bits = function W8 -> 8 | W16 -> 16 | W32 -> 32 | W64 -> 64
let[@inline] bytes = function W8 -> 1 | W16 -> 2 | W32 -> 4 | W64 -> 8

let mask = function
  | W8 -> 0xFFL
  | W16 -> 0xFFFFL
  | W32 -> 0xFFFF_FFFFL
  | W64 -> -1L

let sign_bit = function
  | W8 -> 0x80L
  | W16 -> 0x8000L
  | W32 -> 0x8000_0000L
  | W64 -> Int64.min_int

let all = [ W8; W16; W32; W64 ]

let to_string = function
  | W8 -> "byte"
  | W16 -> "word"
  | W32 -> "dword"
  | W64 -> "qword"

let equal (a : t) (b : t) = a = b
