(** Opcodes of the modelled x86-64 subset.

    The subset mirrors the paper's test universe: in-register arithmetic
    (AR), memory operands (MEM), variable-latency division (VAR),
    conditional branches (CB); plus the extensions discussed in §5.6 and
    §8 — CALL/RET and indirect jumps — needed for the ret2spec row of
    Table 5 and Spectre-V2-style experiments. *)

type t =
  (* two-operand integer ALU *)
  | Add
  | Adc
  | Sub
  | Sbb
  | And
  | Or
  | Xor
  | Cmp
  | Test
  | Mov
  | Imul  (** two-operand form: dst = dst * src *)
  (* one-operand ALU *)
  | Inc
  | Dec
  | Neg
  | Not
  (* shifts (extension; the paper excluded them due to Unicorn bugs,
     our emulator implements them correctly) *)
  | Shl
  | Shr
  | Sar
  | Rol
  | Ror
  (* width conversions *)
  | Movzx
  | Movsx
  (* exchange (RMW, implicitly locked on memory) *)
  | Xchg
  (* conditional data movement *)
  | Cmov of Cond.t
  | Setcc of Cond.t
  (* variable latency *)
  | Div
  | Idiv
  (* control flow *)
  | Jcc of Cond.t
  | Jmp
  | JmpInd  (** indirect jump through a register *)
  | Call
  | Ret
  (* barriers / misc *)
  | Lfence
  | Mfence
  | Nop

val mnemonic : t -> string
val of_mnemonic : string -> t option

val writes_flags : t -> bool
(** Whether the opcode (fully or partially) overwrites RFLAGS. *)

val reads_flags : t -> bool
(** Whether execution depends on RFLAGS (Adc, Sbb, Cmov, Setcc, Jcc). *)

val is_serializing : t -> bool
(** LFENCE/MFENCE: stops speculation in both the model and the simulator. *)

val is_control_flow : t -> bool
