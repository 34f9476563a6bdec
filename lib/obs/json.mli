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
(** [Int] directly, or an integral [Float] below 2{^62} in magnitude. *)

val to_float : t -> float option
val to_str : t -> string option

(** {1 Decoding}

    Every persisted document is read through these: a decoder returns
    [Error] on any input, never raises, and its errors say where in the
    document it failed ([field] names the key, [list] the index). *)

type 'a decoder = t -> ('a, string) result

val int : int decoder
(** As {!to_int}. *)

val float : float decoder
(** As {!to_float}. *)

val str : string decoder
val bool : bool decoder

val int64 : int64 decoder
(** A string {!Int64.of_string} reads: the ["0x…"] form {!hex64} writes. *)

val hex64 : int64 -> t
(** [String "0x…"]: JSON numbers cannot carry 64 bits. *)

val list : 'a decoder -> 'a list decoder

val assoc : (string -> 'a decoder) -> 'a list decoder
(** An object's members in document order, each decoded by the decoder
    its key selects. *)

val field : string -> 'a decoder -> 'a decoder
(** [field k d] decodes member [k] of an object with [d]; a missing key
    is an error. *)

val field_opt : string -> 'a decoder -> 'a option decoder
(** Like {!field}, but a missing or [null] member is [None]. *)

val decode : codec:string -> 'a decoder -> 'a decoder
(** Prefix every error with ["codec: "]. *)

val load : codec:string -> 'a decoder -> string -> ('a, string) result
(** Read, parse and decode a file; every failure (unreadable file,
    malformed JSON, decoder error) is an [Error] starting with
    ["codec: "], and a parse or decoder error also names the path. *)

val check_schema : ?version:int -> string -> unit decoder
(** [check_schema ?version schema] is the envelope check every persisted
    document's decoder runs first: [Ok ()] when the ["schema"] field is
    [schema] and, given [version], the ["version"] field is [version];
    otherwise an error naming the missing or unexpected field. *)
