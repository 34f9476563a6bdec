open Revizor_isa
open Revizor_uarch

(** The experimental setups of Table 2: CPU model × ISA subset × executor
    (threat) mode, plus the generator settings each needs. *)

type t = {
  name : string;  (** "Target 1" ... "Target 8" *)
  uarch : Uarch_config.t;
  subsets : Catalog.subset list;
  threat : Attack.threat;
  mem_pages : int;
}

val target1 : t  (** Skylake, V4 off, AR, Prime+Probe *)

val target2 : t  (** + MEM *)

val target3 : t  (** + VAR *)

val target4 : t  (** as Target 3, V4 patch on *)

val target5 : t  (** Skylake, V4 on, AR+MEM+CB *)

val target6 : t  (** + VAR *)

val target7 : t  (** Skylake, V4 on, AR+MEM, Prime+Probe+Assist *)

val target8 : t  (** Coffee Lake, AR+MEM, Prime+Probe+Assist *)

val all : t list
val find : string -> t option

val fuzzer_config :
  ?seed:int64 -> ?n_inputs:int -> Contract.t -> t -> Fuzzer.config
(** Assemble a fuzzing configuration for a target-contract pair with the
    paper's §6.1 generation parameters. *)

val pp : Format.formatter -> t -> unit
