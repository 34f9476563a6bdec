(** Contract traces: the sequence of observations a contract permits a
    program execution to expose (§2.2). *)

type obs =
  | Addr of int64  (** address of a load or store (MEM clause) *)
  | Pc of int  (** control-flow target (CT clause) *)
  | Value of int64  (** loaded value (ARCH clause) *)

type t
(** An immutable, pointer-free packing of an [obs] sequence: two traces
    are equal exactly when their observation lists are. *)

val empty : t
val of_list : obs list -> t
val to_list : t -> obs list
val equal : t -> t -> bool

val hash : t -> int
(** Covers every observation of the trace. *)

val length : t -> int
(** Number of observations. *)

(** {2 Building a trace in place}

    The contract model appends observations to a reusable buffer and
    takes the trace once per input: no per-observation allocation. *)

val add_addr : Buffer.t -> int64 -> unit
val add_pc : Buffer.t -> int -> unit
val add_value : Buffer.t -> int64 -> unit

val of_buffer : Buffer.t -> t
(** The observations appended to the buffer since it was last cleared. *)

val to_string : t -> string
