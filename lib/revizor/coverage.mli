
(** Pattern coverage (§5.6): the black-box proxy for "did we give the CPU
    opportunities to speculate".

    A pattern is a property of two {e consecutive} instructions in the
    architectural instruction stream: a memory dependency (same address),
    a register or FLAGS dependency, or a control dependency. A pattern is
    {e covered} once a test case whose stream matches it has two inputs in
    the same input class. Combinations of patterns within one test case
    are tracked too; the fuzzer widens the generator configuration when a
    round stops improving combination coverage. *)

type pattern =
  | Store_after_store
  | Load_after_store
  | Store_after_load
  | Load_after_load
  | Reg_dependency
  | Flags_dependency
  | Cond_dependency
  | Uncond_dependency

val patterns_of_stream : Model.step_record list -> pattern list
(** Distinct patterns matched by consecutive instruction pairs. *)

(** Mutable coverage accumulator. *)
type t

val create : unit -> t

val copy : t -> t
(** Snapshot the accumulator (campaign checkpoints store a copy so the
    live one keeps mutating). *)

val to_json : t -> Revizor_obs.Json.t
val of_json : Revizor_obs.Json.t -> (t, string) result
(** Round-trip for checkpoint files: [of_json (to_json t)] covers exactly
    the same patterns and combinations as [t]. *)

val register : t -> patterns:pattern list -> effective:bool -> unit
(** Record one test case's matched patterns. Only test cases with at least
    one multi-input class ([effective]) count as covering (a single input
    cannot form a counterexample). *)

val covered : t -> pattern -> bool

val combinations_covered : t -> k:int -> int
(** Number of distinct covered pattern combinations of size [k]. *)

val total_combinations : t -> int
(** Distinct covered combinations of any size. *)

(** Feedback decision for the fuzzer. *)
val should_grow : t -> previous_combinations:int -> round_length:int -> bool
(** Grow the generator when the round's yield of new covered combinations
    dropped below 20% of its test cases — the diversity of the current
    configuration is exhausted and new speculative paths are unlikely
    (§5.6). *)
