type mem = {
  base : Reg.t option;
  index : Reg.t option;
  scale : int;
  disp : int;
}

type t = Reg of Reg.t * Width.t | Imm of int64 | Mem of mem * Width.t

let reg ?(w = Width.W64) r = Reg (r, w)
let imm i = Imm (Int64.of_int i)
let imm64 i = Imm i

let mem ?(w = Width.W64) ?base ?index ?(scale = 1) ?(disp = 0) () =
  if scale <> 1 && scale <> 2 && scale <> 4 && scale <> 8 then
    invalid_arg (Printf.sprintf "Operand.mem: scale %d" scale);
  Mem ({ base; index; scale; disp }, w)

let sandbox ?(w = Width.W64) ?(disp = 0) idx =
  mem ~w ~base:Reg.sandbox_base ~index:idx ~disp ()

let width = function
  | Reg (_, w) | Mem (_, w) -> Some w
  | Imm _ -> None

let is_mem = function Mem _ -> true | Reg _ | Imm _ -> false

let regs_read = function
  | Reg (r, _) -> [ r ]
  | Imm _ -> []
  | Mem (m, _) ->
      (match m.base with Some b -> [ b ] | None -> [])
      @ (match m.index with Some i -> [ i ] | None -> [])

let pp_mem fmt (m : mem) w =
  let buf = Buffer.create 24 in
  let add s = Buffer.add_string buf s in
  (match m.base with Some b -> add (Reg.name b Width.W64) | None -> ());
  (match m.index with
  | Some i ->
      if Buffer.length buf > 0 then add " + ";
      add (Reg.name i Width.W64);
      if m.scale <> 1 then add (Printf.sprintf "*%d" m.scale)
  | None -> ());
  if m.disp <> 0 || Buffer.length buf = 0 then begin
    if Buffer.length buf > 0 then add (if m.disp >= 0 then " + " else " - ");
    add (string_of_int (abs m.disp))
  end;
  Format.fprintf fmt "%s ptr [%s]" (Width.to_string w) (Buffer.contents buf)

let pp fmt = function
  | Reg (r, w) -> Format.pp_print_string fmt (Reg.name r w)
  | Imm i ->
      if i >= 0L && i < 0x1_0000_0000L then Format.fprintf fmt "%Ld" i
      else Format.fprintf fmt "0x%Lx" i
  | Mem (m, w) -> pp_mem fmt m w
