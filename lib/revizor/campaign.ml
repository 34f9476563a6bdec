open Revizor_uarch
module Json = Revizor_obs.Json

let schema = "revizor.checkpoint.v1"
let version = 1

let subset_names subsets =
  String.concat "+" (List.map Revizor_isa.Catalog.subset_to_string subsets)

(* Canonical rendering of every config field that shapes the result
   stream; its FNV-1a digest is the fingerprint. [executor_domains] is deliberately absent: the campaign loop
   commits in generation order with per-test-case keyed noise/fault
   draws, so results are identical for every pool size (asserted by the
   test suite) and a checkpoint taken with [--executor-domains 4] may be
   resumed with one domain on a smaller machine. The noise seed, by
   contrast, is rendered: keyed draws make it part of the deterministic
   result stream.

   [warmup=1], [adaptive=none] and the [none] after the watchdog's step
   budget stand for config fields that no longer exist: the executor's
   warm-up count, its adaptive-repetition ladder and the watchdog's
   wall-clock deadline. Each is written as the only value a campaign
   ever gave it, so every existing checkpoint and fleet ledger keeps its
   fingerprint. *)
let canonical (c : Fuzzer.config) =
  let e = c.Fuzzer.executor in
  let g = c.Fuzzer.gen_cfg in
  Printf.sprintf
    "contract=%s;uarch=%s;threat=%s;warmup=1;reps=%d;outlier=%d;noise=%s;\
     adaptive=none;exec_max_steps=%d;reset_between=%b;gen=%d,%d,%d,%d,%d,%s;\
     n_inputs=%d;entropy=%d;round_length=%d;seed=0x%Lx;engine=%s;\
     watchdog=%d,none"
    (Contract.name c.Fuzzer.contract)
    c.Fuzzer.uarch.Uarch_config.name
    (Attack.threat_to_string e.Executor.threat)
    e.Executor.measurement_reps e.Executor.outlier_min
    (match e.Executor.noise with
    | None -> "none"
    | Some n ->
        Printf.sprintf "%g@0x%Lx" n.Executor.flip_probability n.Executor.seed)
    e.Executor.max_steps e.Executor.reset_between_inputs g.Generator.n_insts
    g.Generator.n_blocks g.Generator.n_functions g.Generator.max_mem_accesses
    g.Generator.mem_pages
    (subset_names g.Generator.subsets)
    c.Fuzzer.n_inputs c.Fuzzer.entropy c.Fuzzer.round_length c.Fuzzer.seed
    (match c.Fuzzer.engine with
    | Fuzzer.Compiled -> "compiled"
    | Fuzzer.Interpreted -> "interpreted")
    c.Fuzzer.watchdog.Watchdog.max_model_steps

let fingerprint c = Printf.sprintf "%016Lx" (Revizor_obs.Hash.fnv1a (canonical c))

let gen_cfg_to_json (g : Generator.cfg) =
  Json.Obj
    [
      ("n_insts", Json.Int g.Generator.n_insts);
      ("n_blocks", Json.Int g.Generator.n_blocks);
      ("n_functions", Json.Int g.Generator.n_functions);
      ("max_mem_accesses", Json.Int g.Generator.max_mem_accesses);
      ( "subsets",
        Json.List
          (List.map
             (fun s ->
               Json.String (Revizor_isa.Catalog.subset_to_string s))
             g.Generator.subsets) );
      ("mem_pages", Json.Int g.Generator.mem_pages);
    ]

let ( let* ) = Result.bind

let gen_cfg_of_json j =
  let* n_insts = Json.field "n_insts" Json.int j in
  let* n_blocks = Json.field "n_blocks" Json.int j in
  let* n_functions = Json.field "n_functions" Json.int j in
  let* max_mem_accesses = Json.field "max_mem_accesses" Json.int j in
  let* mem_pages = Json.field "mem_pages" Json.int j in
  let* subsets =
    Json.field "subsets"
      (Json.list (fun s ->
           Result.bind (Json.str s) Revizor_isa.Catalog.subset_of_string))
      j
  in
  Ok
    {
      Generator.n_insts;
      n_blocks;
      n_functions;
      max_mem_accesses;
      subsets;
      mem_pages;
    }

let to_json config (s : Fuzzer.snapshot) =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("version", Json.Int version);
      ("fingerprint", Json.String (fingerprint config));
      ("prng", Json.hex64 s.Fuzzer.sn_prng);
      ("gen_cfg", gen_cfg_to_json s.Fuzzer.sn_gen_cfg);
      ("n_inputs", Json.Int s.Fuzzer.sn_n_inputs);
      ("in_round", Json.Int s.Fuzzer.sn_in_round);
      ("combos_at_round_start", Json.Int s.Fuzzer.sn_combos_at_round_start);
      ("stats", Fuzzer.stats_to_json s.Fuzzer.sn_stats);
      ("coverage", Coverage.to_json s.Fuzzer.sn_coverage);
      ("ucoverage", Ucoverage.to_json s.Fuzzer.sn_ucoverage);
    ]

(* The loop state a checkpoint carries is a function of its test-case
   count and growth count: rounds and the position in the round follow
   from the test cases, at most one growth happens per round, each growth
   applies one fixed step to the configured generator and input count,
   and the round-start coverage is a past value of the coverage. A
   document that breaks any of these is a state the campaign cannot
   reach, and resuming it can crash, hang or silently change the run. *)
let check_reachable (config : Fuzzer.config) (s : Fuzzer.snapshot) =
  let st = s.Fuzzer.sn_stats in
  let tc = st.Fuzzer.test_cases and rounds = st.Fuzzer.rounds in
  let growths = st.Fuzzer.growths in
  let round_length = Int.max 1 config.Fuzzer.round_length in
  (* Both growth steps saturate at caps, so the replay stops at the first
     fixed point: its length is bounded whatever [growths] says. *)
  let rec replay n ((g, i) as acc) =
    let next = (Generator.grow g, Fuzzer.grow_inputs i) in
    if n = 0 || next = acc then acc else replay (n - 1) next
  in
  let gen_cfg, n_inputs =
    replay growths (config.Fuzzer.gen_cfg, config.Fuzzer.n_inputs)
  in
  let combos = s.Fuzzer.sn_combos_at_round_start in
  let total = Coverage.total_combinations s.Fuzzer.sn_coverage in
  if rounds <> tc / round_length || s.Fuzzer.sn_in_round <> tc mod round_length
  then
    Error
      (Printf.sprintf
         "in_round %d and %d rounds do not match %d test cases in rounds of %d"
         s.Fuzzer.sn_in_round rounds tc round_length)
  else if growths > rounds then
    Error (Printf.sprintf "%d growths in %d rounds" growths rounds)
  else if s.Fuzzer.sn_gen_cfg <> gen_cfg then
    Error
      (Printf.sprintf "gen_cfg is not the configured one grown %d times" growths)
  else if s.Fuzzer.sn_n_inputs <> n_inputs then
    Error
      (Printf.sprintf "n_inputs %d is not %d, the configured %d grown %d times"
         s.Fuzzer.sn_n_inputs n_inputs config.Fuzzer.n_inputs growths)
  else if combos < 0 || combos > total then
    Error
      (Printf.sprintf "combos_at_round_start %d outside 0..%d" combos total)
  else
    (* Every atlas entry was covered by a test case the campaign ran. *)
    match
      List.find_opt (fun (_, hit) -> hit > tc)
        (Ucoverage.first_hits s.Fuzzer.sn_ucoverage)
    with
    | Some (f, hit) ->
        Error
          (Printf.sprintf "ucoverage: first hit %d of %s is after %d test cases"
             hit (Ucoverage.feature_to_string f) tc)
    | None -> Ok ()

let decoder config j =
  let* () = Json.check_schema ~version schema j in
  let* fp = Json.field "fingerprint" Json.str j in
  let* () =
    if fp = fingerprint config then Ok ()
    else
      Error
        (Printf.sprintf
           "config fingerprint mismatch (checkpoint %s, current config %s) — \
            resume with the same configuration it was taken under"
           fp (fingerprint config))
  in
  let* sn_prng = Json.field "prng" Json.int64 j in
  let* sn_gen_cfg = Json.field "gen_cfg" gen_cfg_of_json j in
  let* sn_n_inputs = Json.field "n_inputs" Json.int j in
  let* sn_in_round = Json.field "in_round" Json.int j in
  let* sn_combos_at_round_start = Json.field "combos_at_round_start" Json.int j in
  let* sn_stats = Json.field "stats" Fuzzer.stats_of_json j in
  let* sn_coverage = Json.field "coverage" Coverage.of_json j in
  (* The atlas section is additive: checkpoints written before it existed
     still load (with an empty atlas), and the checkpoint version stays
     at 1 because the result-bearing state is unchanged. *)
  let* sn_ucoverage = Json.field_opt "ucoverage" Ucoverage.of_json j in
  let snapshot =
    {
      Fuzzer.sn_prng;
      sn_gen_cfg;
      sn_n_inputs;
      sn_in_round;
      sn_combos_at_round_start;
      sn_stats;
      sn_coverage;
      sn_ucoverage =
        Option.value sn_ucoverage ~default:(Ucoverage.create ());
    }
  in
  let* () = check_reachable config snapshot in
  Ok snapshot

let of_json config = Json.decode ~codec:"checkpoint" (decoder config)

let save ~path config snapshot =
  Revizor_obs.Atomic_file.write path
    (Json.to_string_pretty (to_json config snapshot) ^ "\n")

let load ~path config = Json.load ~codec:"checkpoint" (decoder config) path
