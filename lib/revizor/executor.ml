open Revizor_uarch
module Metrics = Revizor_obs.Metrics
module Faultpoint = Revizor_obs.Faultpoint

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

(* Fault point (DESIGN.md §8): [executor.measure] makes a whole
   measurement blow up (the fuzz loop absorbs it). *)
let fp_measure = Faultpoint.point "executor.measure"

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

type config = {
  threat : Attack.threat;
  measurement_reps : int;
  outlier_min : int;
  noise : noise option;
  max_steps : int;
  reset_between_inputs : bool;
}

let default_config ?(threat = Attack.prime_probe) () =
  {
    threat;
    measurement_reps = 3;
    outlier_min = 2;
    noise = None;
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
  slot : Revizor_emu.State.slot;  (* undo slot of the run in progress *)
  (* Per-measurement scratch reused across [measure] calls: the outlier
     filter's threshold planes and the per-input run accumulator. Grown
     on demand and reset in place. Per executor, like the CPU: a pooled
     check measures on its own domain's executor. *)
  planes : Htrace.Planes.t;
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
    slot = Revizor_emu.State.slot ();
    planes = Htrace.Planes.create ();
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

(* A static measurement: what a result array is built over and what
   [release] overwrites it with. *)
let no_measurement = { htrace = Htrace.empty; kinds = []; events = []; runs = [] }

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

let last_data_word =
  Int64.add Revizor_emu.Layout.sandbox_base
    (Int64.of_int
       ((Revizor_emu.Layout.data_pages * Revizor_emu.Layout.page_size) - 8))

(* One real run of [template] — what the memo's soundness argument
   means by "a run": load the template's data into the
   fill buffer, then simulate the program on the template itself under
   the threat model's prepare/observe pair, and undo the run (registers,
   flags and pc from the executor's slot, memory through the store
   journal) so the template comes back as it went in — on the exception
   path too. Returns the RAW trace; [Cpu.events] holds the run's
   speculation episodes. *)
let run_input t flat (template : Revizor_emu.State.t) =
  if t.cfg.reset_between_inputs then Cpu.reset_session t.cpu;
  (* Loading the input into the sandbox moves the input's own data
     through the memory system: the fill buffers hold it afterwards. *)
  Cpu.set_fill_buffer t.cpu
    (Revizor_emu.Memory.read template.Revizor_emu.State.mem
       ~addr:last_data_word Revizor_isa.Width.W64);
  Revizor_emu.State.save template t.slot;
  match
    Attack.observe t.cpu t.cfg.threat (fun () ->
        Cpu.run ~max_steps:t.cfg.max_steps t.cpu flat template)
  with
  | trace ->
      Revizor_emu.State.undo template t.slot;
      trace
  | exception e ->
      Revizor_emu.State.undo template t.slot;
      raise e

(* The suffix of [entries] starting at the first entry whose pre-state
   the footprint now matches, or []: a lookup allocates nothing. *)
let rec memo_find cpu fp = function
  | e :: _ as found when Cpu.matches cpu fp e.pre -> found
  | _ :: rest -> memo_find cpu fp rest
  | [] -> []

(* One pass over the input sequence; the CPU session is NOT reset, so
   predictors carry over from input to input (priming). Each input's
   state was materialized once into [templates]; every run executes on
   the template and undoes itself instead of re-deriving the PRNG stream
   (a sequence runs many times: the priming pass, measurement
   repetitions and swap-check re-measurements).

   With [memo] (the program's predictor footprint), a run whose pre-state
   matches a recorded run of the same slot is replayed from the memo
   instead of simulated — see the soundness argument on [t.memo]. The
   [record] callback receives the RAW trace; noise is the caller's
   business, which keeps replayed and real runs on the same path. Events
   are kept even for event-discarding passes when memoizing, so a later
   hit can replay them. *)
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
             (kind, touched-set) pairs at the end. Skipped for the
             priming pass, whose record callback discards them. *)
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

(* Make slots [0, n) of the cached run accumulator and memo available
   and empty. Only those slots are ever read afterwards. *)
let ensure_buffers t ~n =
  let cap = Array.length t.ev_acc in
  if cap < n then t.ev_acc <- Array.make (Int.max n (Int.max 8 (2 * cap))) []
  else Array.fill t.ev_acc 0 n [];
  if t.memo_ok then begin
    if Array.length t.memo < n then t.memo <- Array.make (Array.length t.ev_acc) [];
    (* No memo entry survives into a new measurement. *)
    Array.fill t.memo 0 (Array.length t.memo) []
  end

(* [List.sort_uniq Stdlib.compare]'s order on (kind, touched sets)
   pairs, without the polymorphic compare: kinds in constructor order,
   then [Htrace.compare], which orders the words as the polymorphic
   compare orders the record's fields. *)
let kind_rank : Cpu.speculation_kind -> int = function
  | Cpu.Branch_mispredict -> 0
  | Cpu.Return_mispredict -> 1
  | Cpu.Indirect_mispredict -> 2
  | Cpu.Store_bypass -> 3
  | Cpu.Assist_load_forward -> 4
  | Cpu.Assist_store_forward -> 5

let compare_event (k, h) (k', h') =
  match Int.compare (kind_rank k) (kind_rank k') with
  | 0 -> Htrace.compare h h'
  | c -> c

let rec no_events = function
  | [] -> true
  | [] :: runs -> no_events runs
  | _ :: _ -> false

(* The sorted, distinct (kind, touched sets) pairs of every episode in
   [runs]. A run physically equal to the run before it — a memo replay
   returns the recorded run's own list — adds nothing new and is
   skipped. *)
let events_of_runs runs =
  if no_events runs then []
  else
    let rec collect prev acc = function
      | [] -> acc
      | run :: runs when run == prev -> collect prev acc runs
      | run :: runs ->
          collect run
            (List.fold_left
               (fun acc (e : Cpu.event) ->
                 (e.Cpu.kind, Htrace.of_list e.Cpu.touched_sets) :: acc)
               acc run)
            runs
    in
    List.sort_uniq compare_event (collect [] [] runs)

(* The distinct kinds of sorted events, in order. *)
let rec kinds_of_events = function
  | (k, _) :: ((k', _) :: _ as evs) when kind_rank k = kind_rank k' ->
      kinds_of_events evs
  | (k, _) :: evs -> k :: kinds_of_events evs
  | [] -> []

let measure ?templates t flat inputs =
  Faultpoint.fire fp_measure;
  t.ctx_measure <- t.ctx_measure + 1;
  t.ctx_seq <- 0;
  let templates = templates_of inputs templates in
  let n = Array.length templates in
  Metrics.incr m_measures;
  Metrics.incr m_warmups;
  Cpu.reset_session t.cpu;
  ensure_buffers t ~n;
  let reps = Int.max 1 t.cfg.measurement_reps in
  let threshold = if t.cfg.measurement_reps >= 3 then t.cfg.outlier_min else 1 in
  (* No observation is seen in more than [reps] repetitions, so a
     threshold above [reps] keeps nothing, as [reps + 1] does with fewer
     planes. *)
  let planes = t.planes in
  Htrace.Planes.reset planes ~slots:n
    ~threshold:(if threshold > reps then reps + 1 else threshold)
    ~domain:(Attack.trace_domain t.cfg.threat.Attack.mode);
  let memo =
    if t.memo_ok && !memo_enabled then Some (Cpu.footprint flat) else None
  in
  (* One priming pass, whose traces are discarded. *)
  run_sequence ~with_events:false ?memo t flat templates
    ~record:(fun _ _ _ -> ());
  (* Per-rep event lists are consed, most recent first; appending with
     [@] would rebuild the accumulated list on every repetition. *)
  let events = t.ev_acc in
  let record idx trace evs =
    (* Noise applies to recorded repetitions only, after the memo: a
       priming trace is discarded anyway, and keyed draws don't need the
       historical draw order preserved. *)
    Htrace.Planes.add planes idx (apply_noise t ~idx trace);
    events.(idx) <- evs :: events.(idx)
  in
  Metrics.add m_reps reps;
  for _ = 1 to reps do
    run_sequence ?memo t flat templates ~record
  done;
  (* Built over a static value, not with [Array.init]: see [release]. *)
  let out = Array.make n no_measurement in
  for idx = 0 to n - 1 do
    let runs = events.(idx) in
    let evs = events_of_runs runs in
    out.(idx) <-
      {
        htrace = Htrace.Planes.result planes idx;
        kinds = kinds_of_events evs;
        events = evs;
        runs;
      };
    events.(idx) <- []
  done;
  (* The campaign-owned scratch lets go of this measurement's young
     values at once: the memo entries die with the measurement. *)
  if t.memo_ok then Array.fill t.memo 0 (Array.length t.memo) [];
  out

let release measurements =
  Array.fill measurements 0 (Array.length measurements) no_measurement

let htraces_of measurements =
  let h = Array.make (Array.length measurements) Htrace.empty in
  Array.iteri (fun i m -> h.(i) <- m.htrace) measurements;
  h

let htraces ?templates t flat inputs =
  let measurements = measure ?templates t flat inputs in
  let h = htraces_of measurements in
  release measurements;
  h

(* The trace of slot [idx] in one measurement, which dies at once. *)
let htrace_at ~templates t flat inputs idx =
  let measurements = measure ~templates t flat inputs in
  let h = measurements.(idx).htrace in
  release measurements;
  h

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
  let h1 = htrace_at ~templates:seq_b_at_a t flat inputs a in
  (* ... and i_a measured in i_b's context slot. *)
  let m2_agrees () =
    let seq_a_at_b = Array.copy templates in
    seq_a_at_b.(b) <- templates.(a);
    Htrace.comparable (htrace_at ~templates:seq_a_at_b t flat inputs b) base.(b)
  in
  (* Artifact iff swapping contexts makes the traces agree both ways. *)
  let artifact = Htrace.comparable h1 base.(a) && m2_agrees () in
  not artifact
