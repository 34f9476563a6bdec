(** Plain-text rendering of experiment results, used by
    [revizor reproduce] to print paper-style tables. *)

val render_table : header:string list -> string list list -> string
(** Column-aligned ASCII table. *)

val t3_outcome_to_string : Experiments.t3_outcome -> string
(** "V (V1, 122 tcs)", "x (400 tcs)", "x*", "V (V1-var, gadget)". *)

val table3 : Experiments.t3_cell list -> string
(** Paper-vs-measured rendering of Table 3. *)

val t4_cell_to_string : Experiments.t4_cell -> string
(** "87.5 tcs [10/10]"; ">600 tcs [3/10]" when a miss enters the median
    ({!Experiments.t4_median}). *)

val table4 : Experiments.t4_cell option list -> string
val table5 : Experiments.t5_row list -> string
val store_eviction : Experiments.store_eviction_result list -> string
val sensitivity : (string * string * bool) list -> string
val throughput : Experiments.throughput -> string
val ablation : Experiments.ablation -> string
val entropy_sweep : (int * float) list -> string
