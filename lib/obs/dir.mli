(** Directory creation for the program's output files. *)

val mkdir_p : string -> unit
(** Create a directory and any missing ancestors. Raises [Sys_error],
    like the file operations that follow it, when one cannot be
    created. *)

val ensure_parent : string -> unit
(** [mkdir_p] of the directory holding a file path: {!Atomic_file.write}
    and {!Telemetry.enable_file} call it, so an output path may name a
    directory that does not exist yet. *)
