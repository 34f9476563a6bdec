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
  f_ucoverage : Ucoverage.t option;
}

(* Recover which original positions carry a surviving fence by walking
   the fenced listing with a cursor into the original one: an
   instruction matching the cursor consumes it; anything else must be an
   inserted LFENCE, recorded against the last consumed position. *)
let fence_positions ~original ~fenced =
  let rec go orig idx fen acc =
    match (orig, fen) with
    | o :: orest, f :: frest when Instruction.equal o f ->
        go orest (idx + 1) frest acc
    | _, f :: frest when Instruction.equal f Instruction.lfence ->
        go orig idx frest ((idx - 1) :: acc)
    | _ ->
        (* Mismatch that is not an inserted fence: the listings diverged
           (should not happen for fence_localize output); report what was
           recovered. *)
        List.rev acc
  in
  go (Program.instructions original) 0 (Program.instructions fenced) []

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

let capture ?ucoverage (cfg : Fuzzer.config) (v : Violation.t) =
  let flat = Program.flatten_exn v.Violation.program in
  let compiled = Fuzzer.compile_with cfg.Fuzzer.engine flat in
  (* Noise-free replay: the timeline should show what the program does,
     not what the campaign's synthetic noise model injected on top. *)
  let replay_cfg = { cfg.Fuzzer.executor with Executor.noise = None } in
  let cpu = Cpu.create cfg.Fuzzer.uarch in
  let exec = Executor.create cpu replay_cfg in
  let recorded = Executor.record_events exec compiled v.Violation.inputs in
  let timeline_of idx =
    let _, events = recorded.(idx) in
    { tl_input = idx; tl_events = List.map event_of_cpu events }
  in
  (* Fence localization re-runs the full per-test-case pipeline, so it
     gets its own executor under the campaign's measurement config. *)
  let fence_exec = Executor.create (Cpu.create cfg.Fuzzer.uarch) cfg.Fuzzer.executor in
  let fenced =
    Postprocessor.fence_localize cfg fence_exec v.Violation.program
      v.Violation.inputs
  in
  let fences = fence_positions ~original:v.Violation.program ~fenced in
  let only_a =
    Htrace.elements (Htrace.diff v.Violation.htrace_a v.Violation.htrace_b)
  in
  let only_b =
    Htrace.elements (Htrace.diff v.Violation.htrace_b v.Violation.htrace_a)
  in
  {
    f_label = v.Violation.label;
    f_program_asm = Program.to_string v.Violation.program;
    f_index_a = v.Violation.index_a;
    f_index_b = v.Violation.index_b;
    f_inputs = v.Violation.inputs;
    f_ctrace = Ctrace.to_string v.Violation.ctrace;
    f_htrace_a = Htrace.elements v.Violation.htrace_a;
    f_htrace_b = Htrace.elements v.Violation.htrace_b;
    f_only_a = only_a;
    f_only_b = only_b;
    f_timelines =
      [ timeline_of v.Violation.index_a; timeline_of v.Violation.index_b ];
    f_fenced_asm = Program.to_string fenced;
    f_fence_positions = fences;
    f_leak_region =
      leak_region ~num_insts:(Program.num_insts v.Violation.program) ~fences;
    f_ucoverage = Option.map Ucoverage.copy ucoverage;
  }

(* --- JSON codec ------------------------------------------------------ *)

let ints l = Json.List (List.map (fun i -> Json.Int i) l)

let input_json (i : Input.t) =
  Json.Obj
    [
      ("seed", Json.String (Printf.sprintf "0x%Lx" i.Input.seed));
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
      ( "ucoverage",
        match t.f_ucoverage with
        | None -> Json.Null
        | Some u -> Ucoverage.to_json u );
    ]

let ( let* ) = Result.bind

let req name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "forensics: missing or bad %S" name)

let to_ints j =
  match j with
  | Json.List l ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | x :: rest -> (
            match Json.to_int x with
            | Some i -> go (i :: acc) rest
            | None -> None)
      in
      go [] l
  | _ -> None

let to_list j = match j with Json.List l -> Some l | _ -> None

let input_of_json j =
  match
    ( Option.bind (Json.member "seed" j) Json.to_str,
      Option.bind (Json.member "entropy" j) Json.to_int )
  with
  | Some seed_s, Some entropy -> (
      match Int64.of_string_opt seed_s with
      | Some seed -> Ok { Input.seed; entropy }
      | None -> Error (Printf.sprintf "forensics: bad input seed %S" seed_s))
  | _ -> Error "forensics: malformed input"

let event_of_json j =
  let* ev_kind = req "kind" Json.to_str j in
  let* ev_origin_pc = req "origin_pc" Json.to_int j in
  let* ev_transient_loads = req "transient_loads" Json.to_int j in
  let* ev_touched_sets = req "touched_sets" to_ints j in
  Ok { ev_kind; ev_origin_pc; ev_transient_loads; ev_touched_sets }

let timeline_of_json j =
  let* tl_input = req "input" Json.to_int j in
  let* raw = req "events" to_list j in
  let* tl_events =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* ev = event_of_json e in
        Ok (ev :: acc))
      (Ok []) raw
    |> Result.map List.rev
  in
  Ok { tl_input; tl_events }

let of_json j =
  let* () = Json.check_schema ~codec:"forensics" schema j in
  let* f_label = req "label" Json.to_str j in
  let* f_program_asm = req "program" Json.to_str j in
  let* f_index_a = req "index_a" Json.to_int j in
  let* f_index_b = req "index_b" Json.to_int j in
  let* raw_inputs = req "inputs" to_list j in
  let* f_inputs =
    List.fold_left
      (fun acc i ->
        let* acc = acc in
        let* input = input_of_json i in
        Ok (input :: acc))
      (Ok []) raw_inputs
    |> Result.map List.rev
  in
  let* f_ctrace = req "ctrace" Json.to_str j in
  let* f_htrace_a = req "htrace_a" to_ints j in
  let* f_htrace_b = req "htrace_b" to_ints j in
  let* f_only_a = req "only_a" to_ints j in
  let* f_only_b = req "only_b" to_ints j in
  let* raw_timelines = req "timelines" to_list j in
  let* f_timelines =
    List.fold_left
      (fun acc t ->
        let* acc = acc in
        let* tl = timeline_of_json t in
        Ok (tl :: acc))
      (Ok []) raw_timelines
    |> Result.map List.rev
  in
  let* f_fenced_asm = req "fenced_program" Json.to_str j in
  let* f_fence_positions = req "fence_positions" to_ints j in
  let f_leak_region =
    match Json.member "leak_region" j with
    | Some (Json.Obj _ as r) -> (
        match
          ( Option.bind (Json.member "first" r) Json.to_int,
            Option.bind (Json.member "last" r) Json.to_int )
        with
        | Some first, Some last -> Some (first, last)
        | _ -> None)
    | _ -> None
  in
  (* Additive key: forensics files from before the atlas load fine. *)
  let* f_ucoverage =
    match Json.member "ucoverage" j with
    | None | Some Json.Null -> Ok None
    | Some u -> Result.map Option.some (Ucoverage.of_json u)
  in
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
      f_ucoverage;
    }

let file ~dir = Filename.concat dir "forensics.json"

let save ~dir t =
  Results.mkdir_p dir;
  Revizor_obs.Atomic_file.write (file ~dir)
    (Json.to_string_pretty (to_json t) ^ "\n")

let load path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic)
  with
  | exception Sys_error e -> Error e
  | contents -> (
      match Json.parse contents with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok j -> of_json j)

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
  (match t.f_ucoverage with
  | None -> ()
  | Some u ->
      add "\n";
      section "Campaign coverage atlas at detection";
      add "  %d distinct microarchitectural features covered\n"
        (Ucoverage.distinct u);
      Buffer.add_string buf (Ucoverage.render_kind_table u));
  Buffer.contents buf
