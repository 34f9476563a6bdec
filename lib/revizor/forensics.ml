open Revizor_isa
open Revizor_uarch
module Json = Revizor_obs.Json

let schema = "revizor.forensics.v1"

type event = {
  ev_kind : string;
  ev_origin_pc : int;
  ev_transient_loads : int;
  ev_touched_sets : int list;
}

type timeline = { tl_input : int; tl_events : event list }

type t = {
  f_label : string;
  f_program_asm : string;
  f_index_a : int;
  f_index_b : int;
  f_inputs : Input.t list;
  f_ctrace : string;
  f_htrace_a : int list;
  f_htrace_b : int list;
  f_only_a : int list;
  f_only_b : int list;
  f_timelines : timeline list;
  f_fenced_asm : string;
  f_fence_positions : int list;
  f_leak_region : (int * int) option;
}

let leak_region ~num_insts ~fences =
  let unfenced =
    List.filter
      (fun i -> not (List.mem i fences))
      (List.init num_insts Fun.id)
  in
  match unfenced with
  | [] -> None
  | first :: _ ->
      Some (first, List.fold_left max first unfenced)

let event_of_cpu (e : Cpu.event) =
  {
    ev_kind = Cpu.kind_to_string e.Cpu.kind;
    ev_origin_pc = e.Cpu.origin_pc;
    ev_transient_loads = e.Cpu.transient_loads;
    ev_touched_sets = e.Cpu.touched_sets;
  }

let capture (cfg : Fuzzer.config) (v : Violation.t) =
  let flat = Program.flatten_exn v.Violation.program in
  let compiled = Fuzzer.compile_with cfg.Fuzzer.engine flat in
  (* Noise-free replay: the timeline should show what the program does,
     not what the campaign's synthetic noise model injected on top. *)
  let replay_cfg = { cfg.Fuzzer.executor with Executor.noise = None } in
  let cpu = Cpu.create cfg.Fuzzer.uarch in
  let exec = Executor.create cpu replay_cfg in
  let measured = Executor.measure exec compiled v.Violation.inputs in
  (* The timeline is the input's first recorded repetition, the one
     right after the priming pass: the last of [runs], which lists the
     newest repetition first. *)
  let timeline_of idx =
    let events =
      match List.rev measured.(idx).Executor.runs with
      | first :: _ -> first
      | [] -> []
    in
    { tl_input = idx; tl_events = List.map event_of_cpu events }
  in
  (* Fence localization re-runs the full per-test-case pipeline, so it
     gets its own executor under the campaign's measurement config. *)
  let fence_exec = Executor.create (Cpu.create cfg.Fuzzer.uarch) cfg.Fuzzer.executor in
  let fenced, fences =
    Postprocessor.fence_localize cfg fence_exec v.Violation.program
      v.Violation.inputs
  in
  let only x y = Htrace.elements (Htrace.diff x y) in
  {
    f_label = v.Violation.label;
    f_program_asm = Program.to_string v.Violation.program;
    f_index_a = v.Violation.index_a;
    f_index_b = v.Violation.index_b;
    f_inputs = v.Violation.inputs;
    f_ctrace = Ctrace.to_string v.Violation.ctrace;
    f_htrace_a = Htrace.elements v.Violation.htrace_a;
    f_htrace_b = Htrace.elements v.Violation.htrace_b;
    f_only_a = only v.Violation.htrace_a v.Violation.htrace_b;
    f_only_b = only v.Violation.htrace_b v.Violation.htrace_a;
    f_timelines =
      [ timeline_of v.Violation.index_a; timeline_of v.Violation.index_b ];
    f_fenced_asm = Program.to_string fenced;
    f_fence_positions = fences;
    f_leak_region =
      leak_region ~num_insts:(Program.num_insts v.Violation.program) ~fences;
  }

(* --- JSON codec ------------------------------------------------------ *)

let ints l = Json.List (List.map (fun i -> Json.Int i) l)

let input_json (i : Input.t) =
  Json.Obj
    [
      ("seed", Json.hex64 i.Input.seed);
      ("entropy", Json.Int i.Input.entropy);
    ]

let event_json e =
  Json.Obj
    [
      ("kind", Json.String e.ev_kind);
      ("origin_pc", Json.Int e.ev_origin_pc);
      ("transient_loads", Json.Int e.ev_transient_loads);
      ("touched_sets", ints e.ev_touched_sets);
    ]

let timeline_json tl =
  Json.Obj
    [
      ("input", Json.Int tl.tl_input);
      ("events", Json.List (List.map event_json tl.tl_events));
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("label", Json.String t.f_label);
      ("program", Json.String t.f_program_asm);
      ("index_a", Json.Int t.f_index_a);
      ("index_b", Json.Int t.f_index_b);
      ("inputs", Json.List (List.map input_json t.f_inputs));
      ("ctrace", Json.String t.f_ctrace);
      ("htrace_a", ints t.f_htrace_a);
      ("htrace_b", ints t.f_htrace_b);
      ("only_a", ints t.f_only_a);
      ("only_b", ints t.f_only_b);
      ("timelines", Json.List (List.map timeline_json t.f_timelines));
      ("fenced_program", Json.String t.f_fenced_asm);
      ("fence_positions", ints t.f_fence_positions);
      ( "leak_region",
        match t.f_leak_region with
        | None -> Json.Null
        | Some (first, last) ->
            Json.Obj [ ("first", Json.Int first); ("last", Json.Int last) ] );
    ]

let ( let* ) = Result.bind
let int_list = Json.list Json.int

let input_of_json j =
  let* seed = Json.field "seed" Json.int64 j in
  let* entropy = Json.field "entropy" Json.int j in
  Ok { Input.seed; entropy }

let event_of_json j =
  let* ev_kind = Json.field "kind" Json.str j in
  let* ev_origin_pc = Json.field "origin_pc" Json.int j in
  let* ev_transient_loads = Json.field "transient_loads" Json.int j in
  let* ev_touched_sets = Json.field "touched_sets" int_list j in
  Ok { ev_kind; ev_origin_pc; ev_transient_loads; ev_touched_sets }

let timeline_of_json j =
  let* tl_input = Json.field "input" Json.int j in
  let* tl_events = Json.field "events" (Json.list event_of_json) j in
  Ok { tl_input; tl_events }

let leak_region_of_json j =
  let* first = Json.field "first" Json.int j in
  let* last = Json.field "last" Json.int j in
  Ok (first, last)

let decoder j =
  let* () = Json.check_schema schema j in
  let* f_label = Json.field "label" Json.str j in
  let* f_program_asm = Json.field "program" Json.str j in
  let* f_index_a = Json.field "index_a" Json.int j in
  let* f_index_b = Json.field "index_b" Json.int j in
  let* f_inputs = Json.field "inputs" (Json.list input_of_json) j in
  let* f_ctrace = Json.field "ctrace" Json.str j in
  let* f_htrace_a = Json.field "htrace_a" int_list j in
  let* f_htrace_b = Json.field "htrace_b" int_list j in
  let* f_only_a = Json.field "only_a" int_list j in
  let* f_only_b = Json.field "only_b" int_list j in
  let* f_timelines = Json.field "timelines" (Json.list timeline_of_json) j in
  let* f_fenced_asm = Json.field "fenced_program" Json.str j in
  let* f_fence_positions = Json.field "fence_positions" int_list j in
  let* f_leak_region = Json.field_opt "leak_region" leak_region_of_json j in
  (* Files that still carry the campaign's atlas (a [ucoverage] member)
     load too; the atlas is read from the [stats.json] beside them. *)
  Ok
    {
      f_label;
      f_program_asm;
      f_index_a;
      f_index_b;
      f_inputs;
      f_ctrace;
      f_htrace_a;
      f_htrace_b;
      f_only_a;
      f_only_b;
      f_timelines;
      f_fenced_asm;
      f_fence_positions;
      f_leak_region;
    }

let of_json = Json.decode ~codec:"forensics" decoder

let file ~dir = Filename.concat dir "forensics.json"

let save ~dir t =
  Revizor_obs.Atomic_file.write (file ~dir)
    (Json.to_string_pretty (to_json t) ^ "\n")

let load = Json.load ~codec:"forensics" decoder

(* --- rendering -------------------------------------------------------- *)

let render t =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let section name = add "== %s ==\n" name in
  add "Violation forensics: %s\n" t.f_label;
  add "Violating pair: input %d vs input %d (of %d in sequence)\n\n"
    t.f_index_a t.f_index_b (List.length t.f_inputs);
  section "Program";
  add "%s\n\n" (String.trim t.f_program_asm);
  section "Violating inputs";
  List.iteri
    (fun i input ->
      if i = t.f_index_a || i = t.f_index_b then
        add "  [%d] %s\n" i (Results.input_to_line input))
    t.f_inputs;
  add "\n";
  section "Contract trace (shared by the pair)";
  add "  %s\n\n" t.f_ctrace;
  section "Hardware trace divergence";
  let show_trace name es =
    add "  %-10s {%s}\n" name (String.concat ", " (List.map string_of_int es))
  in
  show_trace "htrace A" t.f_htrace_a;
  show_trace "htrace B" t.f_htrace_b;
  show_trace "only in A" t.f_only_a;
  show_trace "only in B" t.f_only_b;
  add "\n";
  section "Speculation timeline (diagnostic replay)";
  List.iter
    (fun tl ->
      add "  input %d:\n" tl.tl_input;
      if tl.tl_events = [] then add "    (no transient episodes)\n"
      else
        List.iter
          (fun e ->
            add "    %-22s pc=%-3d transient_loads=%-2d sets={%s}\n" e.ev_kind
              e.ev_origin_pc e.ev_transient_loads
              (String.concat "," (List.map string_of_int e.ev_touched_sets)))
          tl.tl_events)
    t.f_timelines;
  add "\n";
  section "Leak localization (surviving fences)";
  (match t.f_leak_region with
  | Some (first, last) ->
      add "  leaking region: instructions %d..%d " first last;
      add "(an LFENCE anywhere in this range kills the violation)\n"
  | None -> add "  no unfenced region recovered\n");
  add "\n%s\n" (String.trim t.f_fenced_asm);
  Buffer.contents buf
