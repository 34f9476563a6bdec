type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    (* shortest representation that still round-trips *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write ~indent level buf v =
  let nl pad =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * pad) ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          write ~indent (level + 1) buf item)
        items;
      nl level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          escape buf k;
          Buffer.add_char buf ':';
          if indent then Buffer.add_char buf ' ';
          write ~indent (level + 1) buf item)
        kvs;
      nl level;
      Buffer.add_char buf '}'

let render ~indent v =
  let buf = Buffer.create 256 in
  write ~indent 0 buf v;
  Buffer.contents buf

let to_string v = render ~indent:false v
let to_string_pretty v = render ~indent:true v

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > n then fail "truncated \\u escape";
                   let hex = String.sub s !pos 4 in
                   pos := !pos + 4;
                   let code =
                     try int_of_string ("0x" ^ hex)
                     with _ -> fail "bad \\u escape"
                   in
                   (* our emitter only escapes control characters; decode
                      the ASCII range and keep anything else as UTF-8 *)
                   if code < 0x80 then Buffer.add_char buf (Char.chr code)
                   else if code < 0x800 then begin
                     Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
                   else begin
                     Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                     Buffer.add_char buf
                       (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
               | c -> fail (Printf.sprintf "bad escape %C" c));
            go ()
        | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' -> true
      | '.' | 'e' | 'E' | '+' | '-' -> is_float := true; true
      | _ -> false
    do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "malformed number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "malformed number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let kvs = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            kvs := field () :: !kvs;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !kvs)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f < 0x1p62 -> Some (int_of_float f)
  | _ -> None

let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_str = function String s -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

type 'a decoder = t -> ('a, string) result

let ( let* ) = Result.bind
let expect what = function Some v -> Ok v | None -> Error ("expected " ^ what)
let int j = expect "an integer" (to_int j)
let float j = expect "a number" (to_float j)
let str j = expect "a string" (to_str j)
let bool = function Bool b -> Ok b | _ -> Error "expected a boolean"

let int64 = function
  | String s -> (
      match Int64.of_string_opt s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "bad int64 %S" s))
  | _ -> Error "expected an int64 string"

let hex64 v = String (Printf.sprintf "0x%Lx" v)

(* Decode each element in order; the first failure names its position
   (or key) and stops the walk. *)
let rec all label d acc = function
  | [] -> Ok (List.rev acc)
  | (at, x) :: rest -> (
      match d at x with
      | Ok v -> all label d (v :: acc) rest
      | Error e -> Error (Printf.sprintf "%s: %s" (label at) e))

let list d = function
  | List items ->
      all (Printf.sprintf "[%d]") (fun _ -> d) [] (List.mapi (fun i x -> (i, x)) items)
  | _ -> Error "expected a list"

let assoc d = function
  | Obj kvs -> all Fun.id d [] kvs
  | _ -> Error "expected an object"

let field k d j =
  match member k j with
  | None -> Error ("missing " ^ k)
  | Some v -> Result.map_error (Printf.sprintf "%s: %s" k) (d v)

let field_opt k d j =
  match member k j with
  | None | Some Null -> Ok None
  | Some _ -> Result.map Option.some (field k d j)

let decode ~codec d j = Result.map_error (Printf.sprintf "%s: %s" codec) (d j)

let load ~codec d path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error (Printf.sprintf "%s: %s" codec e)
  | s ->
      Result.map_error
        (Printf.sprintf "%s: %s: %s" codec path)
        (Result.bind (parse s) d)

let check_schema ?version schema j =
  let* s = field "schema" str j in
  if s <> schema then Error (Printf.sprintf "unknown schema %S" s)
  else
    match version with
    | None -> Ok ()
    | Some v ->
        let* v' = field "version" int j in
        if v' = v then Ok ()
        else Error (Printf.sprintf "unsupported version %d" v')
