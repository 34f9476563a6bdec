type block = { label : string; insts : Instruction.t list }
type t = { blocks : block list }

let make blocks = { blocks }
let block label insts = { label; insts }
let of_insts insts = { blocks = [ { label = "bb0"; insts } ] }

let num_insts t =
  List.fold_left (fun acc b -> acc + List.length b.insts) 0 t.blocks

let num_blocks t = List.length t.blocks
let instructions t = List.concat_map (fun b -> b.insts) t.blocks

let map_insts f t =
  { blocks = List.map (fun b -> { b with insts = List.concat_map f b.insts }) t.blocks }

type flat = {
  code : Instruction.t array;
  target : int array;
  block_starts : (string * int) list;
}

let flatten t : (flat, string) result =
  let exception Flatten_error of string in
  try
    let starts = Hashtbl.create 16 in
    let n = ref 0 in
    let block_starts =
      List.map
        (fun b ->
          if Hashtbl.mem starts b.label then
            raise (Flatten_error ("duplicate label " ^ b.label));
          Hashtbl.replace starts b.label !n;
          n := !n + List.length b.insts;
          (b.label, Hashtbl.find starts b.label))
        t.blocks
    in
    let code = Array.make !n Instruction.nop in
    let target = Array.make !n (-1) in
    let i = ref 0 in
    List.iter
      (fun b ->
        List.iter
          (fun inst ->
            code.(!i) <- inst;
            (match inst.Instruction.target with
            | Some lbl -> (
                match Hashtbl.find_opt starts lbl with
                | Some idx -> target.(!i) <- idx
                | None -> raise (Flatten_error ("undefined label " ^ lbl)))
            | None -> ());
            incr i)
          b.insts)
      t.blocks;
    Ok { code; target; block_starts }
  with Flatten_error msg -> Error msg

let flatten_exn t =
  match flatten t with Ok f -> f | Error msg -> invalid_arg ("Program.flatten: " ^ msg)

let validate t : (unit, string) result =
  match flatten t with
  | Error msg -> Error msg
  | Ok f ->
      let problem = ref None in
      Array.iteri
        (fun i inst ->
          if !problem = None then begin
            (match Instruction.validate inst with
            | Ok () -> ()
            | Error msg ->
                problem :=
                  Some (Printf.sprintf "instruction %d (%s): %s" i
                          (Instruction.to_string inst) msg));
            if !problem = None && f.target.(i) >= 0 && f.target.(i) <= i then
              problem :=
                Some (Printf.sprintf "instruction %d: backward branch (loop)" i)
          end)
        f.code;
      (match !problem with Some msg -> Error msg | None -> Ok ())

let pp fmt t =
  let first = ref true in
  List.iter
    (fun b ->
      if not !first then Format.pp_print_cut fmt ();
      first := false;
      Format.fprintf fmt ".%s:" b.label;
      List.iter
        (fun i -> Format.fprintf fmt "@,  %a" Instruction.pp i)
        b.insts)
    t.blocks

let pp fmt t = Format.fprintf fmt "@[<v>%a@]" pp t
let to_string t = Format.asprintf "%a" pp t
