(** Instruction-spec catalog and ISA subsets.

    The catalog plays the role of the nanoBench ISA description used by the
    paper: it enumerates the unique instruction variants (opcode × operand
    shape × width) the generator may sample. Subsets mirror Table 2:
    - {b AR}: in-register arithmetic, logic and bitwise operations;
    - {b MEM}: memory-operand forms and loads/stores;
    - {b VAR}: variable-latency operations (division);
    - {b CB}: conditional branches (used as block terminators);
    - {b IND}: extension — indirect jumps, CALL and RET. *)

(** Operand kind in an instruction shape. *)
type okind =
  | KReg  (** a general-purpose register from the generator pool *)
  | KImm  (** a random immediate *)
  | KMem  (** a sandboxed memory operand [\[R14 + reg\]] *)
  | KCl  (** the CL register (shift counts) *)

type spec = {
  opcode : Opcode.t;
  width : Width.t;  (** operand width of the variant *)
  src_width : Width.t option;
      (** source width for width-converting forms (MOVZX/MOVSX) *)
  shape : okind list;
  lock_ok : bool;  (** whether a LOCK prefix may be attached (RMW forms) *)
  terminator : bool;  (** control-flow instructions placed by the DAG pass *)
}

type subset = AR | MEM | VAR | CB | IND

val subset_of_string : string -> (subset, string) result
val subset_to_string : subset -> string

val specs : subset list -> spec list
(** All specs of the union of the given subsets. The list for
    [\[AR; MEM; VAR; CB\]] matches the paper's largest evaluated set. *)

val body_specs : subset list -> spec list
(** {!specs} without terminators — what the generator samples for block
    bodies. *)

val count : subset list -> int
(** Number of unique instruction variants, reported like the paper's
    "AR—325; AR+MEM—678; ..." figures. *)

val spec_name : spec -> string
(** Human-readable variant name, e.g. ["ADD_r32_m32"]. *)
