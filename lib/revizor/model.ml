open Revizor_isa
open Revizor_emu

type step_record = {
  s_pc : int;
  s_inst : Instruction.t;
  s_accesses : Semantics.access list;
}

type result = { ctrace : Ctrace.t; stream : step_record list; faulted : bool }

let max_nesting_depth = 4

(* Architectural steps per walk. *)
let max_steps = 4096

(* ------------------------------------------------------------------ *)
(* Per-domain arenas                                                   *)
(* ------------------------------------------------------------------ *)

(* The batched model stage executes every input of a test case directly
   on its template state and undoes the run afterwards, on preallocated
   machinery: one access buffer shared by all raw actions, one buffer the
   contract trace is packed into, and one save slot per level — slot 0
   for the whole run, slot [d + 1] for an exploration opened at depth
   [d]. One arena per domain (via [Domain.DLS]) lets campaigns on several
   domains share the same fast path without locking. *)
type arena = {
  a_ab : Compiled.abuf;
  a_obs : Buffer.t;
  a_slots : State.slot array;
}

let make_arena () =
  {
    a_ab = Compiled.abuf_create ();
    a_obs = Buffer.create 4096;
    a_slots = Array.init (max_nesting_depth + 2) (fun _ -> State.slot ());
  }

let dls_arena = Domain.DLS.new_key make_arena

(* ------------------------------------------------------------------ *)
(* The walker                                                          *)
(* ------------------------------------------------------------------ *)

(* [run_state_in] is the single execution engine behind both the public
   per-input API and the batched stage.

   [~fuse:true] enables basic-block superinstruction execution: at any
   pc that starts a straight-line run (precomputed by [Compiled.analyze]
   as [run_len], or [nostore_len] under store-bypass contracts, so no
   speculation clause can fire inside the run), up to [budget]
   instructions are executed back-to-back through the [fused] action
   array — no clause re-checks, no per-step observation flush, and no
   flag write no observer reads. A stretch of dead instructions
   ([Compiled.t]'s [dead_len]: register-only, and no observation reads
   what they write) inside the run is passed over in one step. The
   watchdog and the budget still count every instruction, a skipped
   stretch by its length, so fuel accounting and speculation windows are
   bit-identical to the per-step walk. A fault inside a fused block
   truncates the access buffer to the last completed instruction (the
   per-step engine never records a faulting instruction's accesses) and
   stops exactly like the per-step fault clause.

   [~record_stream:false] skips materializing per-step access lists for
   the instruction stream — the fuzzer only reads the stream of the
   first input (for coverage patterns), so all other inputs run
   allocation-free. Architectural steps of a stream-recorded input are
   executed per-step (fusion stays on inside speculative explorations,
   whose steps are never in the stream). *)
let run_state_in ~arena ~fuse ~record_stream ~watchdog (contract : Contract.t)
    prog (state : State.t) =
  let code_len = Compiled.length prog in
  let descs = prog.Compiled.descs in
  let raws = prog.Compiled.raws in
  let fused = prog.Compiled.fused in
  let dead_len = prog.Compiled.dead_len in
  let has_cond = Contract.has_cond contract in
  let has_bpas = Contract.has_bpas contract in
  let fuse_len =
    if has_bpas then prog.Compiled.nostore_len else prog.Compiled.run_len
  in
  let arch_values = contract.Contract.obs = Contract.Arch in
  let expose_stores = contract.Contract.expose_speculative_stores in
  let pc_obs =
    match contract.Contract.obs with
    | Contract.Ct | Contract.Arch -> true
    | Contract.Mem -> false
  in
  let ab = arena.a_ab in
  let slots = arena.a_slots in
  (* Watchdog fuel: counts every walked instruction including nested
     speculative re-explorations, which is exactly the quantity that
     blows up on pathological programs while [max_steps] (per-walk) does
     not. *)
  let fuel = Watchdog.start watchdog in
  (* Observations are packed into the arena's buffer in walk order; the
     trace is taken from it once, at the end. *)
  let obs = arena.a_obs in
  Buffer.clear obs;
  let stream = ref [] in
  let faulted = ref false in
  let record_control next = if pc_obs then Ctrace.add_pc obs next in
  (* Flush buffer entries [0, hi) into the trace, matching the
     per-access record order of the reference walk. *)
  let record_abuf ~speculative hi =
    for k = 0 to hi - 1 do
      if ab.Compiled.ab_store.(k) then begin
        if (not speculative) || expose_stores then
          Ctrace.add_addr obs (Compiled.abuf_addr ab k)
      end
      else begin
        Ctrace.add_addr obs (Compiled.abuf_addr ab k);
        if arch_values then Ctrace.add_value obs (Compiled.abuf_value ab k)
      end
    done
  in
  (* [walk] executes up to [budget] instructions from the current state.
     [depth] counts nested explorations: 0 is the architectural path.
     [explore] runs one exploration from the current pc and rolls the
     state back to where [State.save] left it — on the exception path
     too, so a watchdog trip inside nested explorations unwinds every
     level it opened. *)
  let rec explore ~depth slot budget =
    match walk ~depth:(depth + 1) budget with
    | () -> State.undo state slot
    | exception e ->
        State.undo state slot;
        raise e
  and walk ~depth budget =
    let speculative = depth > 0 in
    let budget = ref budget in
    let stop = ref false in
    while (not !stop) && !budget > 0 && state.State.pc < code_len do
      let pc = state.State.pc in
      let fl =
        if fuse && (speculative || not record_stream) then fuse_len.(pc) else 0
      in
      if fl > 0 then begin
        (* Fused straight-line block. *)
        let stop_at = pc + Int.min fl !budget in
        Compiled.abuf_clear ab;
        let mark = ref 0 in
        let q = ref pc in
        match
          while !q < stop_at do
            let k = dead_len.(!q) in
            if k > 0 then begin
              let k = Int.min k (stop_at - !q) in
              budget := !budget - k;
              Watchdog.tick_n fuel k;
              q := !q + k;
              state.State.pc <- !q
            end
            else begin
              decr budget;
              Watchdog.tick fuel;
              mark := ab.Compiled.ab_len;
              fused.(!q) state ab;
              incr q
            end
          done
        with
        | () -> record_abuf ~speculative ab.Compiled.ab_len
        | exception (Semantics.Division_fault | Memory.Fault _) ->
            record_abuf ~speculative !mark;
            if not speculative then faulted := true;
            stop := true
      end
      else begin
        decr budget;
        Watchdog.tick fuel;
        let d = descs.(pc) in
        if d.Compiled.d_serializing then
          if speculative then stop := true
          else state.State.pc <- pc + 1
        else begin
          let may_nest =
            depth = 0 || (contract.Contract.nesting && depth < max_nesting_depth)
          in
          (* Execution clause: conditional-branch misprediction. *)
          (match d.Compiled.d_cond with
          | Some c when has_cond && may_nest ->
              let actual = Flags.eval_cond state.State.flags c in
              let inverted =
                if actual then pc + 1 else Compiled.target prog pc
              in
              let slot = slots.(depth + 1) in
              State.save state slot;
              state.State.pc <- inverted;
              record_control inverted;
              explore ~depth slot
                (Int.min !budget contract.Contract.speculation_window)
          | Some _ | None -> ());
          (* Execution clause: store bypass (the store is skipped and
             execution continues speculatively). *)
          (if has_bpas && may_nest && d.Compiled.d_stores then
             match d.Compiled.d_mem with
             | Some mr ->
                 let addr = Compiled.mem_addr state mr in
                 let w = mr.Compiled.mr_width in
                 let slot = slots.(depth + 1) in
                 State.save state slot;
                 (match
                    let old = Memory.read state.State.mem ~addr w in
                    Compiled.abuf_clear ab;
                    raws.(pc) state ab;
                    (* Undo the write: the store is bypassed. *)
                    Memory.write state.State.mem ~addr w old;
                    for k = 0 to ab.Compiled.ab_len - 1 do
                      if not ab.Compiled.ab_store.(k) then begin
                        Ctrace.add_addr obs (Compiled.abuf_addr ab k);
                        if arch_values then
                          Ctrace.add_value obs (Compiled.abuf_value ab k)
                      end
                    done
                  with
                 | () ->
                     explore ~depth slot
                       (Int.min !budget contract.Contract.speculation_window)
                 | exception (Semantics.Division_fault | Memory.Fault _) ->
                     State.undo state slot
                 | exception e ->
                     State.undo state slot;
                     raise e)
             | None -> ());
          (* Architectural (or in-exploration) step. *)
          Compiled.abuf_clear ab;
          match raws.(pc) state ab with
          | () ->
              record_abuf ~speculative ab.Compiled.ab_len;
              if d.Compiled.d_control_flow then record_control state.State.pc;
              if record_stream && not speculative then
                stream :=
                  {
                    s_pc = pc;
                    s_inst = d.Compiled.d_inst;
                    s_accesses = Compiled.abuf_accesses ab;
                  }
                  :: !stream
          | exception (Semantics.Division_fault | Memory.Fault _) ->
              if speculative then stop := true
              else begin
                faulted := true;
                stop := true
              end
        end
      end
    done
  in
  walk ~depth:0 max_steps;
  {
    ctrace = Ctrace.of_buffer obs;
    stream = List.rev !stream;
    faulted = !faulted;
  }

let run_state ?(watchdog = Watchdog.default) (contract : Contract.t) prog
    (state : State.t) =
  (* The public per-input walk stays unfused: its final state (including
     the registers and flags the fused walk skips) is part of the
     interface. *)
  let arena = Domain.DLS.get dls_arena in
  run_state_in ~arena ~fuse:false ~record_stream:true ~watchdog contract prog
    state

let run ?watchdog contract prog input =
  run_state ?watchdog contract prog (Input.to_state input)

(* ------------------------------------------------------------------ *)
(* Batched execution                                                   *)
(* ------------------------------------------------------------------ *)

(* Per-input model cost. The input counter stays exact (it feeds the
   dashboards and the deterministic-snapshot test); the clock reads and
   histogram sample are taken for one input in 16, by input index, so
   the instrumentation of the hot loop is allocation-free and
   deterministic across domain counts. *)
let m_inputs = Revizor_obs.Metrics.counter "model.inputs"
let m_total_ns = Revizor_obs.Metrics.counter "model.input_total_ns"
let h_input_ns = Revizor_obs.Metrics.histogram "model.input_ns"

(* Fault point for the model stage: an armed schedule makes a contract
   trace blow up like a real model bug would, so the fuzz loop's
   absorb-and-record path is exercised by tests. *)
let fp_model = Revizor_obs.Faultpoint.point "model.ctrace"

(* One batched run directly on the input's template, handed back as it
   came in: registers, flags and pc from the arena's run slot, memory
   through the store journal — on the exception path too (a watchdog
   trip, an injected fault). *)
let run_in_place ~arena ~record_stream ~watchdog contract prog state =
  let slot = arena.a_slots.(0) in
  State.save state slot;
  match
    run_state_in ~arena ~fuse:true ~record_stream ~watchdog contract prog state
  with
  | r ->
      State.undo state slot;
      r
  | exception e ->
      State.undo state slot;
      raise e

let timed_trace ~arena ~idx ~record_stream ~watchdog contract prog state =
  Revizor_obs.Faultpoint.fire fp_model;
  Revizor_obs.Metrics.incr m_inputs;
  if idx land 15 = 0 then begin
    let t0 = Revizor_obs.Clock.now_ns () in
    let r = run_in_place ~arena ~record_stream ~watchdog contract prog state in
    let dt = Revizor_obs.Clock.now_ns () - t0 in
    Revizor_obs.Metrics.add m_total_ns dt;
    Revizor_obs.Metrics.observe h_input_ns dt;
    r
  end
  else run_in_place ~arena ~record_stream ~watchdog contract prog state

let ctraces ?(watchdog = Watchdog.default) ?templates ?(stream = `All) contract
    prog inputs =
  let templates =
    match templates with Some tpl -> tpl | None -> Input.templates inputs
  in
  let arena = Domain.DLS.get dls_arena in
  List.mapi
    (fun i _ ->
      let record_stream = match stream with `All -> true | `First -> i = 0 in
      timed_trace ~arena ~idx:i ~record_stream ~watchdog contract prog
        templates.(i))
    inputs
