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

val run : ?watchdog:Watchdog.t -> Contract.t -> Compiled.t -> Input.t -> result
(** Collect the contract trace of one (program, input) pair, walking at
    most 4096 architectural steps. Faults during speculative exploration
    merely end the exploration; faults on the architectural path set
    [faulted]. [watchdog] (default {!Watchdog.default}) bounds the total
    walked steps — including nested speculative re-explorations — and
    raises {!Watchdog.Pathological} on exhaustion. *)

val ctraces :
  ?watchdog:Watchdog.t ->
  ?templates:State.t array ->
  ?stream:[ `All | `First ] ->
  Contract.t ->
  Compiled.t ->
  Input.t list ->
  result list
(** The batched model stage: contract traces for each input in order.
    Every input executes directly on its template state, which is then
    undone ({!State.save}/{!State.undo}: registers from a per-domain save
    slot, memory through the store journal) — no per-input state copy,
    access-list or outcome allocation — with basic-block
    superinstruction fusion and dead-flag elision on the hot path.
    Speculative explorations roll back through the same undo. Results
    are bit-identical to mapping {!run} over the inputs — same
    ctraces, same faults, same order — and every template comes back
    exactly as it went in, also when {!Watchdog.Pathological} or an
    injected fault escapes mid-run.

    [templates] (from {!Input.templates} or {!Arena.templates}, indexed
    like the list) are the states the inputs run on; without them, they
    are built with {!Input.templates}.

    [stream] selects instruction-stream recording: [`All] (default)
    records every input's stream like {!run}; [`First] records only
    input 0 (all the fuzzer's pattern analysis needs) and runs the rest
    allocation-free. *)
