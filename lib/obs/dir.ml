(* Directory creation for every file the program writes: an output path
   may name a directory that does not exist yet. *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
        raise (Sys_error (Printf.sprintf "%s: %s" dir (Unix.error_message e)))
  end

let ensure_parent path = mkdir_p (Filename.dirname path)
