open Revizor_isa
open Revizor_emu

(** The executable contract model (§5.4).

    Executes a test case on the architectural emulator, instrumented with
    a SpecFuzz-style checkpoint stack: instructions with a non-empty
    execution clause trigger an exploration of the mis-speculated path
    (bounded by the contract's speculation window, stopped by serializing
    instructions), after which the state rolls back and normal execution
    resumes. Observations are recorded according to the observation
    clause, on both normal and explored paths. *)

type step_record = {
  s_pc : int;
  s_inst : Instruction.t;
  s_accesses : Semantics.access list;
}
(** One architectural step, kept for the pattern-coverage analysis
    (§5.6) — speculative explorations are not part of the stream. *)

type result = {
  ctrace : Ctrace.t;
  stream : step_record list;  (** architectural execution order *)
  faulted : bool;
      (** the architectural path raised #DE or a sandbox fault; the test
          case must be discarded (CH1 instrumentation failed) *)
}

val run :
  ?max_steps:int ->
  ?watchdog:Watchdog.t ->
  Contract.t ->
  Compiled.t ->
  Input.t ->
  result
(** Collect the contract trace of one (program, input) pair. Faults during
    speculative exploration merely end the exploration; faults on the
    architectural path set [faulted]. [watchdog] (default
    {!Watchdog.default}) bounds the total walked steps — including nested
    speculative re-explorations — and raises {!Watchdog.Pathological} on
    exhaustion. *)

val run_state :
  ?max_steps:int ->
  ?watchdog:Watchdog.t ->
  Contract.t ->
  Compiled.t ->
  State.t ->
  result
(** Like {!run}, but on an already-materialized initial state (mutated in
    place). [run contract prog input] is
    [run_state contract prog (Input.to_state input)]. *)

val batch :
  ?max_steps:int ->
  ?watchdog:Watchdog.t ->
  ?stream:[ `All | `First ] ->
  Contract.t ->
  Compiled.t ->
  ?templates:State.t array ->
  Input.t list ->
  result list
(** The batched model stage: specialize a per-test-case closure once
    (contract dispatch, fused straight-line-run metadata), then invoke it
    with the full input set. Every input executes on a preallocated
    per-domain scratch state reset in place from its template (arena
    allocation: no per-input state, access-list or outcome allocation),
    with basic-block superinstruction fusion and dead-flag elision on the
    hot path. Results are bit-identical to mapping {!run_state} over the
    inputs — same ctraces, same faults, same order.

    [stream] selects instruction-stream recording: [`All] (default)
    records every input's stream like {!run}; [`First] records only
    input 0 (all the fuzzer's pattern analysis needs) and runs the rest
    allocation-free. *)

val ctraces :
  ?max_steps:int ->
  ?watchdog:Watchdog.t ->
  ?templates:State.t array ->
  ?stream:[ `All | `First ] ->
  Contract.t ->
  Compiled.t ->
  Input.t list ->
  result list
(** Contract traces for each input in order ({!batch} applied at once).
    When [templates] (from {!Input.templates} or {!Arena.templates},
    indexed like the list) is given, each run starts from a blit-restore
    of the corresponding template instead of re-deriving the state from
    the input's PRNG seed. *)
