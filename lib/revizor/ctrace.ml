type obs = Addr of int64 | Pc of int | Value of int64

(* A trace is a string of 9-byte records: a tag byte ([tag_addr],
   [tag_pc] or [tag_value]) followed by the observation's payload as a
   little-endian 64-bit integer ([Pc]s widened with [Int64.of_int]). The
   encoding is injective, so string equality is trace equality, and a
   string holds no pointers: a trace costs the minor collector one copy
   at most and the write barrier nothing. *)
type t = string

let record = 9
let tag_addr = '\000'
let tag_pc = '\001'
let tag_value = '\002'
let empty = ""
let equal = String.equal

(* [Hashtbl.hash] mixes every byte of a string. *)
let hash (t : t) = Hashtbl.hash t
let length t = String.length t / record

(* Inlined, like [add_value], so a caller's unboxed address reaches the
   buffer without being boxed for the call. *)
let[@inline] add_addr buf a =
  Buffer.add_char buf tag_addr;
  Buffer.add_int64_le buf a

let add_pc buf p =
  Buffer.add_char buf tag_pc;
  Buffer.add_int64_le buf (Int64.of_int p)

let[@inline] add_value buf v =
  Buffer.add_char buf tag_value;
  Buffer.add_int64_le buf v

let of_buffer = Buffer.contents

let add buf = function
  | Addr a -> add_addr buf a
  | Pc p -> add_pc buf p
  | Value v -> add_value buf v

let of_list l =
  let buf = Buffer.create (record * List.length l) in
  List.iter (add buf) l;
  Buffer.contents buf

let obs t i =
  let tag = t.[i * record] and v = String.get_int64_le t ((i * record) + 1) in
  if tag = tag_addr then Addr v
  else if tag = tag_pc then Pc (Int64.to_int v)
  else Value v

let to_list t = List.init (length t) (obs t)

let pp_obs fmt = function
  | Addr a -> Format.fprintf fmt "A:0x%Lx" a
  | Pc p -> Format.fprintf fmt "PC:%d" p
  | Value v -> Format.fprintf fmt "V:0x%Lx" v

let pp fmt t =
  Format.fprintf fmt "[@[<hov>%a@]]"
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ") pp_obs)
    (to_list t)

let to_string t = Format.asprintf "%a" pp t
