open Revizor_isa

(** The postprocessor (§5.7): shrink a detected violation in three stages.

    1. {b Input minimization}: find a smaller input sequence that still
       primes the microarchitectural state for the violation.
    2. {b Instruction minimization}: remove instructions one at a time
       while the violation persists.
    3. {b Fence insertion}: add LFENCEs from the end backwards; positions
       where an LFENCE kills the violation delimit the leaking region
       (cf. Fig. 4's highlighted region). *)

type result = {
  program : Program.t;  (** minimized test case *)
  inputs : Input.t list;  (** minimized priming sequence *)
  fenced : Program.t;
      (** the minimized test case with the surviving LFENCEs inserted —
          the unfenced region is the location of the leak *)
}

val still_violates :
  Fuzzer.config -> Executor.t -> Program.t -> Input.t list -> bool
(** One full pipeline check (model, classes, measurement, analysis,
    filters) on a candidate reduction. *)

val fence_localize :
  Fuzzer.config ->
  Executor.t ->
  Program.t ->
  Input.t list ->
  Program.t * int list
(** Stage 3 alone, applied to the given program: insert LFENCEs from the
    end backwards and keep those that do not kill the violation. Returns
    the program with the surviving fences and, in ascending order, the
    positions (0-based, in the given program) after which they stand;
    the fence-free stretch delimits the leaking region. {!minimize} runs
    it on the minimized program, the violation flight recorder on the
    original listing. *)

val minimize :
  Fuzzer.config -> Executor.t -> Violation.t -> result
(** Deterministic greedy minimization. The result is guaranteed to still
    violate the contract. *)
