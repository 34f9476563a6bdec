type t =
  | RAX
  | RBX
  | RCX
  | RDX
  | RSI
  | RDI
  | RBP
  | RSP
  | R8
  | R9
  | R10
  | R11
  | R12
  | R13
  | R14
  | R15

let all =
  [ RAX; RBX; RCX; RDX; RSI; RDI; RBP; RSP; R8; R9; R10; R11; R12; R13; R14; R15 ]

let gen_pool = [ RAX; RBX; RCX; RDX ]
let sandbox_base = R14
let stack_pointer = RSP

let index = function
  | RAX -> 0
  | RBX -> 1
  | RCX -> 2
  | RDX -> 3
  | RSI -> 4
  | RDI -> 5
  | RBP -> 6
  | RSP -> 7
  | R8 -> 8
  | R9 -> 9
  | R10 -> 10
  | R11 -> 11
  | R12 -> 12
  | R13 -> 13
  | R14 -> 14
  | R15 -> 15

let of_index = function
  | 0 -> RAX
  | 1 -> RBX
  | 2 -> RCX
  | 3 -> RDX
  | 4 -> RSI
  | 5 -> RDI
  | 6 -> RBP
  | 7 -> RSP
  | 8 -> R8
  | 9 -> R9
  | 10 -> R10
  | 11 -> R11
  | 12 -> R12
  | 13 -> R13
  | 14 -> R14
  | 15 -> R15
  | n -> invalid_arg (Printf.sprintf "Reg.of_index: %d" n)

(* Names of the legacy registers at each width; numbered registers follow the
   regular R<n>[BWD] scheme. *)
let legacy_names = function
  | RAX -> ("AL", "AX", "EAX", "RAX")
  | RBX -> ("BL", "BX", "EBX", "RBX")
  | RCX -> ("CL", "CX", "ECX", "RCX")
  | RDX -> ("DL", "DX", "EDX", "RDX")
  | RSI -> ("SIL", "SI", "ESI", "RSI")
  | RDI -> ("DIL", "DI", "EDI", "RDI")
  | RBP -> ("BPL", "BP", "EBP", "RBP")
  | RSP -> ("SPL", "SP", "ESP", "RSP")
  | r ->
      let n = index r in
      ( Printf.sprintf "R%dB" n,
        Printf.sprintf "R%dW" n,
        Printf.sprintf "R%dD" n,
        Printf.sprintf "R%d" n )

let name r (w : Width.t) =
  let b, wd, d, q = legacy_names r in
  match w with W8 -> b | W16 -> wd | W32 -> d | W64 -> q

let name_table =
  lazy
    (let tbl = Hashtbl.create 64 in
     List.iter
       (fun r ->
         List.iter (fun w -> Hashtbl.replace tbl (name r w) (r, w)) Width.all)
       all;
     tbl)

let of_name s = Hashtbl.find_opt (Lazy.force name_table) (String.uppercase_ascii s)
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
