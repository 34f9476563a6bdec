(* Helpers shared by the test suites. *)

open Revizor
module Json = Revizor_obs.Json

(* Every statistic of a campaign except [elapsed_s], the wall-clock time
   that bit-identity excludes. *)
let stats_fingerprint (s : Fuzzer.stats) =
  match Fuzzer.stats_to_json s with
  | Json.Obj fields ->
      Json.to_string (Json.Obj (List.remove_assoc "elapsed_s" fields))
  | j -> Json.to_string j

(* A campaign's outcome: the whole violation report and the contract
   trace the violating pair shares. *)
let outcome_fingerprint = function
  | Fuzzer.No_violation -> "no-violation"
  | Fuzzer.Violation v ->
      Format.asprintf "%a@,ctrace %s" Violation.pp v
        (Ctrace.to_string v.Violation.ctrace)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* Run [f] on a path under the temporary directory, unique to [name] and
   this process and not yet created, and remove the tree [f] leaves. *)
let with_tmpdir name f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "revizor-%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
