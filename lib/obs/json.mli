(** A minimal JSON value type with a printer and a parser.

    The telemetry layer needs machine-readable output (metrics summaries,
    JSONL event lines, saved [stats.json]) and a way to read it back in
    tests, the [telemetry-check] validator, and {!Results}-style loaders —
    without adding a JSON dependency to the build. The subset is full
    JSON; object key order is preserved by both the printer and the
    parser, so values round-trip structurally. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (valid JSON; floats keep enough digits
    to round-trip). *)

val to_string_pretty : t -> string
(** Two-space indented rendering for files meant to be read by humans. *)

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed). Integers
    without fraction/exponent parse as [Int], everything else numeric as
    [Float]. *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the first binding of [k]; [None] on other
    constructors. *)

val to_int : t -> int option
(** [Int] directly, or an integral [Float]. *)

val to_float : t -> float option
val to_str : t -> string option

val check_schema :
  ?version:int -> codec:string -> string -> t -> (unit, string) result
(** [check_schema ?version ~codec schema j] is the envelope check every
    persisted document's decoder runs first: [Ok ()] when [j]'s ["schema"]
    field is [schema] and, given [version], its ["version"] field is
    [version]. Otherwise an [Error] starting with ["codec: "] that names
    the missing or unexpected field. *)
