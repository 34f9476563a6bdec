open Revizor_uarch
module Metrics = Revizor_obs.Metrics
module Telemetry = Revizor_obs.Telemetry
module Faultpoint = Revizor_obs.Faultpoint
module Json = Revizor_obs.Json

(* Measurement-volume and noise-filter attribution counters: how many
   hardware runs a campaign really paid for, and how often the injected
   noise model perturbed a trace (the counts the outlier filter has to
   absorb). *)
let m_measures = Metrics.counter "executor.measures"
let m_reps = Metrics.counter "executor.measurement_reps"
let m_warmups = Metrics.counter "executor.warmup_rounds"
let m_sequences = Metrics.counter "executor.sequences"
let m_input_runs = Metrics.counter "executor.input_runs"
let m_memo_hits = Metrics.counter "executor.memo_hits"
let m_swap_measures = Metrics.counter "executor.swap_measurements"
let m_noise_added = Metrics.counter "executor.noise.added"
let m_noise_dropped = Metrics.counter "executor.noise.dropped"
let m_noise_storms = Metrics.counter "executor.noise.storms"
let m_adaptive = Metrics.counter "executor.adaptive_escalations"

(* Fault points (DESIGN.md §8): [executor.measure] makes a whole
   measurement blow up (the fuzz loop absorbs it); [executor.noise_storm]
   sprays deterministic spurious observations into individual traces so
   the outlier filter and the adaptive-repetition ladder are exercised. *)
let fp_measure = Faultpoint.point "executor.measure"
let fp_storm = Faultpoint.point "executor.noise_storm"

(* Keyed noise (DESIGN.md §6): instead of drawing from one sequential
   PRNG — whose draw positions would couple every measurement to every
   measurement before it — each perturbation decision is drawn from a
   stream derived with splitmix64 from [seed] and the measurement's
   coordinates (test case, measurement epoch within the test case,
   sequence pass, input index). A draw is addressed, not consumed from a
   shared sequence, so traces are bit-identical for any executor domain
   count, any scheduling order, and independent of how many measurements
   were skipped by memoization. *)
type noise = { flip_probability : float; seed : int64 }

(* Bounded adaptive retry (§5.3 spirit: the executor buys signal with
   repetitions): when the outlier filter is rejecting more than
   [reject_ratio] of the distinct observations, double the repetitions —
   capped at [max_total_reps] — before settling. Off by default; with it
   off, measurement behavior is bit-identical to the pre-adaptive
   executor. *)
type adaptive = { reject_ratio : float; max_total_reps : int }

type config = {
  threat : Attack.threat;
  warmup_rounds : int;
  measurement_reps : int;
  outlier_min : int;
  noise : noise option;
  adaptive : adaptive option;
  max_steps : int;
  reset_between_inputs : bool;
}

let default_config ?(threat = Attack.prime_probe) () =
  {
    threat;
    warmup_rounds = 1;
    measurement_reps = 3;
    outlier_min = 2;
    noise = None;
    adaptive = None;
    max_steps = 20000;
    reset_between_inputs = false;
  }

(* Master switch for measurement memoization (below). Global because the
   differential tests need to compare whole fuzzing campaigns — which
   build their executors internally — with the optimization on and off. *)
let memo_enabled = ref true
let set_memo b = memo_enabled := b

type memo_entry = {
  pre : Cpu.snapshot;
  post : Cpu.snapshot;
  trace : Htrace.t;
  events : Cpu.event list;
}

type t = {
  cpu : Cpu.t;
  cfg : config;
  scratch : Revizor_emu.State.t;
  (* Per-measurement scratch reused across [measure] calls: the occurrence
     count matrix and the per-input event accumulator. Grown on demand and
     reset in place, so the steady-state measurement loop allocates
     nothing per call. Row width is fixed by the config's threat mode. *)
  mutable counts : int array array;
  mutable ev_acc : Cpu.event list list array;
  (* Measurement coordinates for keyed noise: the current test case, the
     measurement epoch within it, and the sequence pass within the
     current measurement. Set by the fuzz loop via [set_context]; a
     standalone executor keeps tc 0, which is just as deterministic. *)
  mutable ctx_tc : int;
  mutable ctx_measure : int;
  mutable ctx_seq : int;
  (* Measurement memo (sound replay of repeated runs): [memo.(idx)] lists
     the real runs of input slot [idx] in the current measurement, each
     with the contents of the program's predictor footprint before and
     after it (see [Cpu.footprint]). A run of a slot from a state that
     matches a recorded run's pre-state would reproduce that run's trace,
     events and post-state bit for bit, so it is replayed instead: the
     post-state is installed and the recorded trace and events are
     returned. Every entry list is cleared at [measure] entry, so an entry
     never survives into a different measurement — arena-pooled templates
     are refilled between test cases and swap checks permute the template
     array — and within one measurement the slot fixes the template and
     the program. Restricted to Prime+Probe / Evict+Reload without a
     per-input reset: their preparation canonicalizes the whole cache,
     whereas Flush+Reload only evicts the monitored lines and
     Port+Contention leaves the cache untouched, so for those the cache
     does carry cross-run state. *)
  memo_ok : bool;
  mutable memo : memo_entry list array;
}

let create cpu cfg =
  {
    cpu;
    cfg;
    scratch = Revizor_emu.State.create ();
    counts = [||];
    ev_acc = [||];
    ctx_tc = 0;
    ctx_measure = 0;
    ctx_seq = 0;
    memo_ok =
      (match cfg.threat.Attack.mode with
      | Attack.Prime_probe | Attack.Evict_reload -> true
      | Attack.Flush_reload | Attack.Port_contention -> false)
      && not cfg.reset_between_inputs;
    memo = [||];
  }

let cpu t = t.cpu
let config t = t.cfg

let set_context t ~tc =
  t.ctx_tc <- tc;
  t.ctx_measure <- 0

type measurement = {
  htrace : Htrace.t;
  kinds : Cpu.speculation_kind list;
  events : (Cpu.speculation_kind * Htrace.t) list;
  runs : Cpu.event list list;
}

let apply_noise t ~idx trace =
  match t.cfg.noise with
  | None -> trace
  | Some n ->
      let rng =
        Prng.derive n.seed
          [
            Int64.of_int t.ctx_tc;
            Int64.of_int t.ctx_measure;
            Int64.of_int t.ctx_seq;
            Int64.of_int idx;
          ]
      in
      let domain = Attack.trace_domain t.cfg.threat.Attack.mode in
      let trace = ref trace in
      (* Possibly add one spurious observation... *)
      if Float.of_int (Prng.int rng 1_000_000) /. 1_000_000. < n.flip_probability
      then begin
        Metrics.incr m_noise_added;
        trace := Htrace.add (Prng.int rng domain) !trace
      end;
      (* ... and possibly drop one real one. *)
      if
        (not (Htrace.is_empty !trace))
        && Float.of_int (Prng.int rng 1_000_000) /. 1_000_000.
           < n.flip_probability
      then begin
        Metrics.incr m_noise_dropped;
        (* k-th smallest element straight off the bitset: no element-list
           materialization, no O(n²) [List.nth] walk. *)
        let victim = Htrace.nth !trace (Prng.int rng (Htrace.cardinal !trace)) in
        trace := Htrace.diff !trace (Htrace.singleton victim)
      end;
      !trace

(* Synthetic noise storm: when the armed schedule fires, spray a burst of
   spurious observations derived from the hit's own hash — deterministic
   under the fault seed, different across repetitions, so the outlier
   filter sees exactly the kind of transient garbage a noisy co-tenant
   produces. *)
let apply_storm cfg trace =
  match Faultpoint.fire_value fp_storm with
  | None -> trace
  | Some bits ->
      Metrics.incr m_noise_storms;
      let domain = Attack.trace_domain cfg.threat.Attack.mode in
      let t = ref trace in
      for j = 0 to 5 do
        let chunk =
          Int64.to_int (Int64.logand (Int64.shift_right_logical bits (j * 10)) 0x3FFL)
        in
        t := Htrace.add (chunk mod domain) !t
      done;
      !t

let last_data_word =
  Int64.add Revizor_emu.Layout.sandbox_base
    (Int64.of_int
       ((Revizor_emu.Layout.data_pages * Revizor_emu.Layout.page_size) - 8))

(* One real run of [template] — what the memo's soundness argument and
   the forensic replay mean by "a run": restore the template into the
   scratch state, load its data into the fill buffer, then simulate the
   program under the threat model's prepare/observe pair. Returns the RAW
   trace; [Cpu.events] holds the run's speculation episodes. *)
let run_input t flat (template : Revizor_emu.State.t) =
  if t.cfg.reset_between_inputs then Cpu.reset_session t.cpu;
  Revizor_emu.State.copy_into template ~dst:t.scratch;
  (* Loading the input into the sandbox moves the input's own data
     through the memory system: the fill buffers hold it afterwards. *)
  Cpu.set_fill_buffer t.cpu
    (Revizor_emu.Memory.read template.Revizor_emu.State.mem
       ~addr:last_data_word Revizor_isa.Width.W64);
  Attack.observe t.cpu t.cfg.threat (fun () ->
      Cpu.run ~max_steps:t.cfg.max_steps t.cpu flat t.scratch)

(* The suffix of [entries] starting at the first entry whose pre-state
   the footprint now matches, or []: a lookup allocates nothing. *)
let rec memo_find cpu fp = function
  | e :: _ as found when Cpu.matches cpu fp e.pre -> found
  | _ :: rest -> memo_find cpu fp rest
  | [] -> []

(* One pass over the input sequence; the CPU session is NOT reset, so
   predictors carry over from input to input (priming). Each input's
   state was materialized once into [templates]; every run blit-restores
   the template into the executor's scratch state instead of re-deriving
   the PRNG stream (a sequence runs many times: warm-up rounds,
   measurement repetitions and swap-check re-measurements).

   With [memo] (the program's predictor footprint), a run whose pre-state
   matches a recorded run of the same slot is replayed from the memo
   instead of simulated — see the soundness argument on [t.memo]. The
   [record] callback receives the RAW trace; perturbations (noise,
   storms) are the caller's business, which keeps replayed and real runs
   on the same path. Events are kept even for event-discarding passes
   when memoizing, so a later hit can replay them. *)
let run_sequence ?(with_events = true) ?memo t flat
    (templates : Revizor_emu.State.t array) ~record =
  Metrics.incr m_sequences;
  t.ctx_seq <- t.ctx_seq + 1;
  let hits = ref 0 in
  Array.iteri
    (fun idx template ->
      match memo with
      | None ->
          let trace = run_input t flat template in
          (* keep every episode whole — kind, origin PC, transient-load
             count, touched sets — for mechanism labelling and the
             coverage atlas; the measurement result collapses them to
             (kind, touched-set) pairs at the end. Skipped for rounds
             whose record callback discards them (warm-up). *)
          record idx trace (if with_events then Cpu.events t.cpu else [])
      | Some fp -> (
          match memo_find t.cpu fp t.memo.(idx) with
          | e :: _ ->
              incr hits;
              Cpu.install t.cpu fp e.post;
              record idx e.trace e.events
          | [] ->
              let pre = Cpu.snapshot t.cpu fp in
              let trace = run_input t flat template in
              let events = Cpu.events t.cpu in
              let post = Cpu.snapshot t.cpu fp in
              t.memo.(idx) <- { pre; post; trace; events } :: t.memo.(idx);
              record idx trace events))
    templates;
  Metrics.add m_input_runs (Array.length templates - !hits);
  if !hits > 0 then Metrics.add m_memo_hits !hits

let templates_of inputs = function
  | Some tpl -> tpl
  | None -> Input.templates inputs

(* Make rows [0, n) of the cached measurement buffers available and
   zeroed. Only those rows are ever read afterwards. *)
let ensure_buffers t ~n ~domain =
  let cap = Array.length t.counts in
  if cap < n then begin
    let ncap = max n (max 8 (2 * cap)) in
    t.counts <-
      Array.init ncap (fun i ->
          if i < cap then t.counts.(i) else Array.make domain 0);
    t.ev_acc <- Array.make ncap []
  end;
  for i = 0 to n - 1 do
    Array.fill t.counts.(i) 0 domain 0;
    t.ev_acc.(i) <- []
  done;
  if t.memo_ok then begin
    if Array.length t.memo < n then t.memo <- Array.make (Array.length t.counts) [];
    (* No memo entry survives into a new measurement. *)
    Array.fill t.memo 0 (Array.length t.memo) []
  end

let measure ?templates t flat inputs =
  Faultpoint.fire fp_measure;
  t.ctx_measure <- t.ctx_measure + 1;
  t.ctx_seq <- 0;
  let templates = templates_of inputs templates in
  let n = Array.length templates in
  Metrics.incr m_measures;
  Metrics.add m_warmups t.cfg.warmup_rounds;
  Cpu.reset_session t.cpu;
  let domain = Attack.trace_domain t.cfg.threat.Attack.mode in
  ensure_buffers t ~n ~domain;
  let memo =
    if t.memo_ok && !memo_enabled then Some (Cpu.footprint flat) else None
  in
  for _ = 1 to t.cfg.warmup_rounds do
    run_sequence ~with_events:false ?memo t flat templates
      ~record:(fun _ _ _ -> ())
  done;
  (* Per-input occurrence counts over the (small, dense) trace domain: a
     flat increment per observation instead of an assoc-list rebuild. *)
  let counts = t.counts in
  (* Per-rep event lists are consed and concatenated once at the end;
     appending with [@] here would rebuild the accumulated list on every
     repetition (quadratic in reps). *)
  let events = t.ev_acc in
  let base_reps = max 1 t.cfg.measurement_reps in
  let reps_done = ref 0 in
  let run_reps k =
    Metrics.add m_reps k;
    for _ = 1 to k do
      run_sequence ?memo t flat templates ~record:(fun idx trace evs ->
          (* Perturbations apply to recorded repetitions only, after the
             memo: a warm-up trace is discarded anyway, and keyed draws
             don't need the historical draw order preserved. *)
          let trace = apply_noise t ~idx trace in
          let trace = apply_storm t.cfg trace in
          let row = counts.(idx) in
          Htrace.iter (fun o -> row.(o) <- row.(o) + 1) trace;
          events.(idx) <- evs :: events.(idx))
    done;
    reps_done := !reps_done + k
  in
  run_reps base_reps;
  (* The outlier threshold scales with the repetitions actually run, so
     escalation raises the bar for sparse (noise-like) observations while
     genuine signals — present every rep — sail over it. At the base rep
     count this reduces exactly to the fixed pre-adaptive threshold. *)
  let threshold_for r =
    if t.cfg.measurement_reps >= 3 then
      max t.cfg.outlier_min (r * t.cfg.outlier_min / base_reps)
    else 1
  in
  (match t.cfg.adaptive with
  | None -> ()
  | Some a ->
      let reject_ratio () =
        let thr = threshold_for !reps_done in
        let observed = ref 0 and rejected = ref 0 in
        (* Only the first [n] rows belong to this measurement — the cached
           matrix may be wider than the current input set. *)
        for i = 0 to n - 1 do
          Array.iter
            (fun c ->
              if c > 0 then begin
                incr observed;
                if c < thr then incr rejected
              end)
            counts.(i)
        done;
        if !observed = 0 then 0.
        else float_of_int !rejected /. float_of_int !observed
      in
      let continue_ = ref true in
      while
        !continue_
        && !reps_done < a.max_total_reps
        && reject_ratio () > a.reject_ratio
      do
        (* Capped doubling: each escalation re-runs as many reps as have
           been run so far, until the total cap. *)
        let extra = min !reps_done (a.max_total_reps - !reps_done) in
        if extra <= 0 then continue_ := false
        else begin
          Metrics.incr m_adaptive;
          if Telemetry.enabled () then
            Telemetry.event "executor.adaptive_reps"
              [
                ("reps_done", Json.Int !reps_done);
                ("extra", Json.Int extra);
              ];
          run_reps extra
        end
      done);
  let threshold = threshold_for !reps_done in
  Array.init n (fun idx ->
      let htrace = ref Htrace.empty in
      Array.iteri
        (fun o c -> if c >= threshold then htrace := Htrace.add o !htrace)
        counts.(idx);
      let runs = events.(idx) in
      let evs =
        List.sort_uniq Stdlib.compare
          (List.concat_map
             (List.map (fun (e : Cpu.event) ->
                  (e.Cpu.kind, Htrace.of_list e.Cpu.touched_sets)))
             runs)
      in
      let ks = List.sort_uniq Stdlib.compare (List.map fst evs) in
      { htrace = !htrace; kinds = ks; events = evs; runs })

let htraces ?templates t flat inputs =
  Array.map (fun m -> m.htrace) (measure ?templates t flat inputs)

(* Forensic replay: one primed pass capturing the full speculation-event
   record per input. Mirrors [measure]'s structure (session reset,
   warm-up passes, then one recorded pass) but keeps [Cpu.event] whole —
   origin PC and transient-load counts included — where the measurement
   path collapses events to (kind, touched-set) pairs. No noise, no
   storms, no memoization: the flight recorder wants the mechanism
   timeline, not a faithful reproduction of the measurement pipeline,
   and it runs on a fresh executor after the campaign has already
   decided the verdict. *)
let record_events ?templates t flat inputs =
  let templates = templates_of inputs templates in
  Cpu.reset_session t.cpu;
  let run_pass record =
    Array.iteri
      (fun idx template ->
        let trace = run_input t flat template in
        record idx trace (Cpu.events t.cpu))
      templates
  in
  for _ = 1 to t.cfg.warmup_rounds do
    run_pass (fun _ _ _ -> ())
  done;
  let out = Array.make (Array.length templates) (Htrace.empty, []) in
  run_pass (fun idx trace events -> out.(idx) <- (trace, events));
  out

let swap_check ?templates ?base t flat inputs a b =
  Metrics.incr m_swap_measures;
  let templates = templates_of inputs templates in
  (* Every measurement — noisy or not — is a pure function of (templates,
     session reset, measurement coordinates) now that noise draws are
     keyed rather than sequential, so the unswapped baseline the caller
     has already measured can always be reused verbatim, and the second
     swapped measurement can be skipped as soon as the first one refutes
     the artifact hypothesis. *)
  let base =
    match base with
    | Some h -> h
    | None -> htraces ~templates t flat inputs
  in
  (* i_b measured in i_a's context slot... *)
  let seq_b_at_a = Array.copy templates in
  seq_b_at_a.(a) <- templates.(b);
  let m1 = htraces ~templates:seq_b_at_a t flat inputs in
  (* ... and i_a measured in i_b's context slot. *)
  let m2_agrees () =
    let seq_a_at_b = Array.copy templates in
    seq_a_at_b.(b) <- templates.(a);
    let m2 = htraces ~templates:seq_a_at_b t flat inputs in
    Htrace.comparable m2.(b) base.(b)
  in
  (* Artifact iff swapping contexts makes the traces agree both ways. *)
  let artifact = Htrace.comparable m1.(a) base.(a) && m2_agrees () in
  not artifact
