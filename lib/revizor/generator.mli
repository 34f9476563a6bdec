open Revizor_isa

(** The randomized test-case generator (§5.1).

    Programs are built as a DAG of basic blocks (no loops), populated with
    random instructions from the configured ISA subsets, then instrumented
    so they can never fault:
    - memory operands take the sandboxed form [\[R14 + reg + offset\]]
      with an [AND reg, mask] inserted before the access, confining it to
      the configured number of 4 KiB pages at cache-line alignment; the
      offset is a per-test-case random value in [\[0, 64)];
    - division operands are rewritten (RDX zeroed, divisor ORed with 1,
      signed dividends halved) so #DE cannot occur.

    When the [IND] subset is enabled, the generator additionally emits
    leaf functions that are entered with CALL and left with RET. *)

type cfg = {
  n_insts : int;  (** body instructions before instrumentation *)
  n_blocks : int;  (** basic blocks of the main routine *)
  n_functions : int;  (** callable leaf functions (IND subset only) *)
  max_mem_accesses : int;  (** cap on memory-operand instructions *)
  subsets : Catalog.subset list;
  mem_pages : int;  (** sandbox pages addressable by the masking (1 or 2) *)
}

val default_cfg : cfg
(** The paper's starting configuration: 8 instructions, 2 blocks,
    2 memory accesses, 1 page, AR+MEM+CB. *)

val grow : cfg -> cfg
(** The diversity-feedback step (§5.6): increase instructions and blocks
    by constant factors, up to fixed caps. Pure, so a checkpoint decoder
    can replay it. *)

val generate : Prng.t -> cfg -> Program.t
(** Generate and instrument one test case. The result always passes
    {!Program.validate}. *)

val generate_raw : Prng.t -> cfg -> Program.t
(** Without the instrumentation pass (for testing the passes). *)
