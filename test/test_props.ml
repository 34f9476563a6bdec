(* Property-based tests (QCheck): algebraic invariants of the word/flags
   layer, cache, traces, analyzer, generator, parser — and the central
   soundness property that the speculative CPU simulator is architecturally
   equivalent to the pure emulator on arbitrary generated programs. *)

open Revizor_isa
open Revizor_emu
open Revizor_uarch
open Revizor

let count = 200

let test ?(count = count) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let width_gen = QCheck.oneofl Width.all

let full_int64_gen =
  QCheck.(
    map
      (fun (a, b) -> Int64.logxor (Int64.of_int a) (Int64.shift_left (Int64.of_int b) 31))
      (pair int int))

(* --- Word / Flags ------------------------------------------------------ *)

let word_props =
  [
    test "zext is idempotent" QCheck.(pair width_gen full_int64_gen)
      (fun (w, v) -> Word.zext w (Word.zext w v) = Word.zext w v);
    test "sext agrees with zext on the low bits"
      QCheck.(pair width_gen full_int64_gen)
      (fun (w, v) -> Word.zext w (Word.sext w v) = Word.zext w v);
    test "sext sign" QCheck.(pair width_gen full_int64_gen) (fun (w, v) ->
        let s = Word.sext w v in
        if Word.sign_set w v then Int64.compare s 0L < 0
        else Int64.compare s 0L >= 0);
    test "merge keeps untouched bits"
      QCheck.(triple width_gen full_int64_gen full_int64_gen)
      (fun (w, old, v) ->
        let m = Word.merge w ~old v in
        match w with
        | Width.W64 | Width.W32 -> Word.zext w m = Word.zext w v
        | Width.W8 | Width.W16 ->
            Word.zext w m = Word.zext w v
            && Int64.shift_right_logical m (Width.bits w)
               = Int64.shift_right_logical old (Width.bits w));
    test "eval_cond respects negation"
      QCheck.(pair (oneofl Cond.all) full_int64_gen)
      (fun (c, bits) ->
        let f = Flags.of_word bits in
        Flags.eval_cond f c = not (Flags.eval_cond f (Cond.negate c)));
    test "flags roundtrip through RFLAGS word" full_int64_gen (fun bits ->
        let f = Flags.of_word bits in
        Flags.equal f (Flags.of_word (Flags.to_word f)));
    test "add carry matches wide arithmetic (w <= 32)"
      QCheck.(triple (oneofl [ Width.W8; Width.W16; Width.W32 ]) full_int64_gen full_int64_gen)
      (fun (w, a, b) ->
        let a = Word.zext w a and b = Word.zext w b in
        let r = Word.zext w (Int64.add a b) in
        let f = Flags.after_add w ~a ~b ~carry_in:false ~r in
        Flags.cf f = (Int64.unsigned_compare (Int64.add a b) (Width.mask w) > 0)
        && Flags.zf f = (r = 0L)
        && Flags.sf f = Word.sign_set w r);
    test "sub borrow matches unsigned comparison"
      QCheck.(triple width_gen full_int64_gen full_int64_gen)
      (fun (w, a, b) ->
        let a = Word.zext w a and b = Word.zext w b in
        let r = Word.zext w (Int64.sub a b) in
        let f = Flags.after_sub w ~a ~b ~borrow_in:false ~r in
        Flags.cf f = (Int64.unsigned_compare a b < 0)
        && Flags.zf f = (a = b));
  ]

(* --- Memory -------------------------------------------------------------- *)

let offset_gen = QCheck.int_range 0 (Layout.sandbox_size - 9)

(* A few stores of random widths anywhere in the sandbox. *)
let journal_writes_gen =
  QCheck.(list_of_size (Gen.int_range 0 12) (triple offset_gen width_gen full_int64_gen))

let memory_props =
  [
    test "write/read roundtrip" QCheck.(triple width_gen offset_gen full_int64_gen)
      (fun (w, off, v) ->
        let m = Memory.create () in
        let addr = Int64.add Layout.sandbox_base (Int64.of_int off) in
        Memory.write m ~addr w v;
        Memory.read m ~addr w = Word.zext w v);
    test "disjoint writes do not interfere"
      QCheck.(pair offset_gen full_int64_gen)
      (fun (off, v) ->
        QCheck.assume (off + 16 < Layout.sandbox_size);
        let m = Memory.create () in
        let addr = Int64.add Layout.sandbox_base (Int64.of_int off) in
        Memory.write m ~addr Width.W64 v;
        Memory.write m ~addr:(Int64.add addr 8L) Width.W64 (Int64.lognot v);
        Memory.read m ~addr Width.W64 = v);
    test ~count:100 "nested journal undo is exact"
      QCheck.(triple journal_writes_gen journal_writes_gen journal_writes_gen)
      (fun (w1, w2, w3) ->
        (* Three nested levels of random stores; each level stores before
           and after the level inside it, and each undo must give back
           exactly the bytes seen when its level opened. *)
        let m = Memory.create () in
        Memory.fill m ~f:(fun off -> (off * 7) + 3);
        let store =
          List.iter (fun (off, w, v) ->
              Memory.write m ~addr:(Int64.add Layout.sandbox_base (Int64.of_int off)) w v)
        in
        let rec level = function
          | [] -> true
          | ws :: inner ->
              let seen = Memory.copy m in
              let mark = Memory.journal_begin m in
              store ws;
              let inner_ok = level inner in
              store (List.rev ws);
              Memory.journal_undo m ~mark;
              inner_ok && Memory.equal seen m
        in
        level [ w1; w2; w3 ]);
  ]

(* --- Cache / Htrace -------------------------------------------------------- *)

let cache_set_arb = QCheck.int_range 0 63

let cache_props =
  [
    test "touch implies contains" QCheck.(small_list cache_set_arb) (fun lines ->
        let c = Cache.create () in
        List.iter
          (fun l ->
            ignore (Cache.touch c (Int64.of_int (l * Layout.cache_line))))
          lines;
        match List.rev lines with
        | [] -> true
        | last :: _ -> Cache.contains c (Int64.of_int (last * Layout.cache_line)));
    test "probe detects exactly the touched sets" QCheck.(small_list cache_set_arb)
      (fun sets ->
        let c = Cache.create () in
        Cache.prime c;
        List.iter
          (fun s ->
            ignore
              (Cache.touch c
                 (Int64.add Layout.sandbox_base (Int64.of_int (s * Layout.cache_line)))))
          sets;
        (* sandbox_base is line 1024, which is set 0: offset s*64 lands in
           set s *)
        let touched s = List.mem s sets in
        List.for_all
          (fun set -> Cache.probe c set = touched set)
          (List.init 64 Fun.id));
    test "htrace union is an upper bound" QCheck.(pair (small_list cache_set_arb) (small_list cache_set_arb))
      (fun (a, b) ->
        let ha = Htrace.of_list a and hb = Htrace.of_list b in
        let u = Htrace.union ha hb in
        Htrace.subset ha u && Htrace.subset hb u);
    test "comparable is symmetric" QCheck.(pair (small_list cache_set_arb) (small_list cache_set_arb))
      (fun (a, b) ->
        let ha = Htrace.of_list a and hb = Htrace.of_list b in
        Htrace.comparable ha hb = Htrace.comparable hb ha);
    test "equal traces are comparable" QCheck.(small_list cache_set_arb) (fun a ->
        let h = Htrace.of_list a in
        Htrace.comparable h h);
  ]

(* --- Analyzer ---------------------------------------------------------------- *)

(* [Analyzer.check_class] under both equivalences against the plain
   first-pair scan it screens: the first member with a later member it
   is not equivalent to, and that member. *)
let agrees_with_first_pair cls htraces =
  let first_pair equivalent =
    let rec go = function
      | [] -> None
      | a :: rest -> (
          match
            List.find_opt (fun b -> not (equivalent htraces.(a) htraces.(b))) rest
          with
          | Some b -> Some (a, b)
          | None -> go rest)
    in
    go cls.Analyzer.members
  in
  Analyzer.check_class ~equivalence:`Subset cls htraces
  = first_pair Htrace.comparable
  && Analyzer.check_class ~equivalence:`Equal cls htraces = first_pair Htrace.equal

let analyzer_props =
  [
    test "classes partition the effective inputs" QCheck.(list_of_size (Gen.return 30) (int_range 0 3))
      (fun tags ->
        let ctraces =
          Array.of_list
            (List.map (fun t -> Ctrace.of_list [ Ctrace.Addr (Int64.of_int t) ]) tags)
        in
        let classes = Analyzer.input_classes ctraces in
        let all = List.concat_map (fun c -> c.Analyzer.members) classes in
        List.length all = List.length (List.sort_uniq compare all)
        && List.for_all
             (fun c ->
               List.for_all
                 (fun i -> Ctrace.equal ctraces.(i) c.Analyzer.ctrace)
                 c.Analyzer.members)
             classes);
    test "no violation within identical traces" QCheck.(int_range 2 10) (fun n ->
        let cls = { Analyzer.ctrace = Ctrace.empty; members = List.init n Fun.id } in
        let htraces = Array.make n (Htrace.of_list [ 1; 2 ]) in
        Analyzer.check_class cls htraces = None);
    test "check_class agrees with a first-pair scan"
      QCheck.(triple (int_range 0 2) (int_range 2 40) int)
      (fun (shape, k, seed) ->
        (* All equal, a chain of prefixes, or arbitrary small sets. *)
        let rng = Random.State.make [| seed |] in
        let trace _ =
          match shape with
          | 0 -> Htrace.of_list [ 1; 5 ]
          | 1 -> Htrace.of_list (List.init (Random.State.int rng 4) Fun.id)
          | _ ->
              Htrace.of_list
                (List.filter (fun _ -> Random.State.bool rng) [ 0; 1; 2; 3 ])
        in
        let htraces = Array.init (k + 3) trace in
        let members =
          List.sort_uniq compare (List.init k (fun _ -> Random.State.int rng (k + 3)))
        in
        agrees_with_first_pair { Analyzer.ctrace = Ctrace.empty; members } htraces);
    Alcotest.test_case "check_class on classes above 256 members" `Quick
      (fun () ->
        let k = 300 and odd = 217 in
        let members = List.init k Fun.id in
        let cls = { Analyzer.ctrace = Ctrace.empty; members } in
        let base = Htrace.of_list [ 1; 2 ] in
        List.iter
          (fun (what, odd_trace) ->
            let htraces = Array.make k base in
            Option.iter (fun h -> htraces.(odd) <- h) odd_trace;
            Alcotest.(check bool) what true (agrees_with_first_pair cls htraces))
          [
            ("all equal", None);
            ("one incomparable member", Some (Htrace.of_list [ 3 ]));
            ("one superset member", Some (Htrace.of_list [ 1; 2; 3 ]));
            ("one subset member", Some (Htrace.of_list [ 2 ]));
          ]);
  ]

(* --- Packed contract traces ------------------------------------------------------ *)

(* Observations over a wide range, and over a three-value alphabet where
   equal traces (and so multi-member classes) are common. *)
let obs_arb =
  QCheck.(
    oneof
      [
        map (fun a -> Ctrace.Addr a) full_int64_gen;
        map (fun p -> Ctrace.Pc p) int;
        map (fun v -> Ctrace.Value v) full_int64_gen;
      ])

let small_obs_arb =
  QCheck.(
    map
      (fun (k, v) ->
        match k with
        | 0 -> Ctrace.Addr (Int64.of_int v)
        | 1 -> Ctrace.Pc v
        | _ -> Ctrace.Value (Int64.of_int v))
      (pair (int_range 0 2) (int_range 0 2)))

let small_trace_arb = QCheck.(list_of_size (Gen.int_range 0 3) small_obs_arb)

(* The analyzer's partition by structural list equality: classes of two
   or more members in order of first appearance, members ascending. *)
let reference_classes lists =
  let keys =
    List.fold_left (fun ks l -> if List.mem l ks then ks else ks @ [ l ]) [] lists
  in
  List.filter_map
    (fun k ->
      match
        List.filter_map Fun.id (List.mapi (fun i l -> if l = k then Some i else None) lists)
      with
      | [] | [ _ ] -> None
      | ms -> Some (k, ms))
    keys

let ctrace_golden () =
  let open Ctrace in
  List.iter
    (fun (l, s) -> Alcotest.(check string) s s (to_string (of_list l)))
    [
      ([], "[]");
      ([ Addr 0x1000L ], "[A:0x1000]");
      ([ Addr 0x1000L; Pc 3; Value 0xdeadbeefL ], "[A:0x1000; PC:3; V:0xdeadbeef]");
      ( [ Pc 0; Value (-1L); Addr Int64.min_int; Pc max_int ],
        "[PC:0; V:0xffffffffffffffff; A:0x8000000000000000; PC:4611686018427387903]" );
      ( List.init 12 (fun i ->
            if i mod 3 = 0 then Pc (i * 7)
            else if i mod 3 = 1 then Addr (Int64.add 0x7ffff000L (Int64.of_int (i * 64)))
            else Value (Int64.of_int (i * 0x1234567))),
        "[PC:0; A:0x7ffff040; V:0x2468ace; PC:21; A:0x7ffff100; V:0x5b05b03; PC:42;\n\
        \ A:0x7ffff1c0; V:0x91a2b38; PC:63; A:0x7ffff280; V:0xc83fb6d]" );
    ]

let ctrace_props =
  [
    test "to_list inverts of_list" QCheck.(small_list obs_arb) (fun l ->
        Ctrace.to_list (Ctrace.of_list l) = l
        && Ctrace.length (Ctrace.of_list l) = List.length l);
    test "equal is list equality" QCheck.(pair small_trace_arb small_trace_arb)
      (fun (a, b) -> Ctrace.equal (Ctrace.of_list a) (Ctrace.of_list b) = (a = b));
    test "input_classes partition like list equality"
      QCheck.(list_of_size (Gen.int_range 0 40) small_trace_arb)
      (fun lists ->
        let classes =
          Analyzer.input_classes (Array.of_list (List.map Ctrace.of_list lists))
        in
        List.map (fun c -> (Ctrace.to_list c.Analyzer.ctrace, c.Analyzer.members)) classes
        = reference_classes lists);
    Alcotest.test_case "to_string prints the list printer's text" `Quick ctrace_golden;
  ]

(* --- Generator / Parser --------------------------------------------------------- *)

let seed_gen = QCheck.(map Int64.of_int small_int)

let subsets_gen =
  QCheck.oneofl
    [
      [ Catalog.AR ];
      [ Catalog.AR; Catalog.MEM ];
      [ Catalog.AR; Catalog.MEM; Catalog.VAR ];
      [ Catalog.AR; Catalog.MEM; Catalog.CB ];
      [ Catalog.AR; Catalog.MEM; Catalog.CB; Catalog.VAR ];
    ]

let gen_program seed subsets =
  let prng = Prng.create ~seed in
  Generator.generate prng { Generator.default_cfg with Generator.subsets }

let generator_props =
  [
    test ~count:100 "generated programs always validate" QCheck.(pair seed_gen subsets_gen)
      (fun (seed, subsets) ->
        Result.is_ok (Program.validate (gen_program seed subsets)));
    test ~count:50 "generated programs never fault architecturally"
      QCheck.(pair seed_gen subsets_gen)
      (fun (seed, subsets) ->
        let p = gen_program seed subsets in
        let flat = Compiled.of_program_exn p in
        let prng = Prng.create ~seed:(Int64.add seed 99L) in
        List.for_all
          (fun input ->
            let r = Model.run Contract.ct_seq flat input in
            not r.Model.faulted)
          (Input.generate_many prng ~entropy:8 ~n:3));
    test ~count:50 "printer/parser roundtrip" QCheck.(pair seed_gen subsets_gen)
      (fun (seed, subsets) ->
        let p = gen_program seed subsets in
        match Asm_parser.parse_program (Program.to_string p) with
        | Ok p' -> Program.to_string p = Program.to_string p'
        | Error _ -> false);
    test ~count:50 "model is deterministic" QCheck.(pair seed_gen seed_gen)
      (fun (pseed, iseed) ->
        let p = gen_program pseed [ Catalog.AR; Catalog.MEM; Catalog.CB ] in
        let flat = Compiled.of_program_exn p in
        let input = { Input.seed = iseed; entropy = 2 } in
        let a = Model.run Contract.ct_cond_bpas flat input in
        let b = Model.run Contract.ct_cond_bpas flat input in
        Ctrace.equal a.Model.ctrace b.Model.ctrace);
  ]

(* --- The central soundness property ---------------------------------------------- *)

let cpu_props =
  [
    test ~count:60
      "speculative CPU is architecturally equivalent to the pure emulator"
      QCheck.(triple seed_gen seed_gen (oneofl [ false; true ]))
      (fun (pseed, iseed, v4_patch) ->
        let p = gen_program pseed [ Catalog.AR; Catalog.MEM; Catalog.CB; Catalog.VAR ] in
        let flat = Program.flatten_exn p in
        let prog = Compiled.of_flat flat in
        let input = { Input.seed = iseed; entropy = 3 } in
        let s_cpu = Input.to_state input in
        let s_emu = Input.to_state input in
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch) in
        (* train predictors with a couple of other inputs first, to give
           the run real speculation to roll back *)
        let prng = Prng.create ~seed:(Int64.add iseed 7L) in
        List.iter
          (fun i -> Cpu.run cpu prog (Input.to_state i))
          (Input.generate_many prng ~entropy:3 ~n:3);
        Cpu.run cpu prog s_cpu;
        ignore (Semantics.run flat s_emu);
        State.equal_arch s_cpu s_emu);
    test ~count:40 "assists never change architectural results"
      QCheck.(pair seed_gen seed_gen)
      (fun (pseed, iseed) ->
        let p = gen_program pseed [ Catalog.AR; Catalog.MEM ] in
        let flat = Program.flatten_exn p in
        let prog = Compiled.of_flat flat in
        let input = { Input.seed = iseed; entropy = 3 } in
        let s_cpu = Input.to_state input in
        let s_emu = Input.to_state input in
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
        Page_table.clear_accessed (Cpu.pages cpu) ~page:0;
        Cpu.run cpu prog s_cpu;
        ignore (Semantics.run flat s_emu);
        State.equal_arch s_cpu s_emu);
    test ~count:40 "ret target masking stays in range"
      QCheck.(pair full_int64_gen (int_range 1 50))
      (fun (v, len) ->
        let idx = Semantics.mask_code_index ~code_len:len v in
        idx >= 0 && idx <= len);
  ]

(* --- Executor reproducibility ------------------------------------------------------- *)

let executor_props =
  [
    test ~count:10 "hardware traces are reproducible across CPU sessions"
      QCheck.(pair seed_gen seed_gen)
      (fun (pseed, iseed) ->
        let p = gen_program pseed [ Catalog.AR; Catalog.MEM; Catalog.CB ] in
        let flat = Compiled.of_program_exn p in
        let inputs =
          Input.generate_many (Prng.create ~seed:iseed) ~entropy:2 ~n:10
        in
        let measure () =
          let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
          let ex = Executor.create cpu (Executor.default_config ()) in
          Executor.htraces ex flat inputs
        in
        Array.for_all2 Htrace.equal (measure ()) (measure ()));
  ]

(* --- Rotation identity ------------------------------------------------------------ *)

let rotation_props =
  [
    test ~count:100 "rol then ror by the same count is the identity"
      QCheck.(triple (oneofl Width.all) full_int64_gen (int_range 0 31))
      (fun (w, v, count) ->
        let s = State.create () in
        State.set_reg s Reg.RAX Width.W64 v;
        let flat =
          Program.flatten_exn
            (Program.of_insts
               [
                 Instruction.binop Opcode.Rol (Operand.reg ~w Reg.RAX)
                   (Operand.imm count);
                 Instruction.binop Opcode.Ror (Operand.reg ~w Reg.RAX)
                   (Operand.imm count);
               ])
        in
        ignore (Semantics.run flat s);
        State.get_reg s Reg.RAX w = Word.zext w v);
    test ~count:100 "movzx then downcast is the identity on the low bits"
      QCheck.(pair full_int64_gen (oneofl [ Width.W8; Width.W16; Width.W32 ]))
      (fun (v, ws) ->
        let s = State.create () in
        State.set_reg s Reg.RBX Width.W64 v;
        let flat =
          Program.flatten_exn
            (Program.of_insts
               [
                 Instruction.binop Opcode.Movzx (Operand.reg Reg.RAX)
                   (Operand.reg ~w:ws Reg.RBX);
               ])
        in
        ignore (Semantics.run flat s);
        State.get_reg s Reg.RAX Width.W64 = Word.zext ws v);
  ]

(* --- Htrace bitset vs the reference Set.Make(Int) --------------------------------- *)

module IntSet = Set.Make (Int)

let obs_gen = QCheck.int_range 0 (Htrace.width - 1)
let obs_list_gen = QCheck.(list_of_size (Gen.int_range 0 40) obs_gen)

let htrace_bitset_props =
  [
    test "of_list/elements agree with the reference set" obs_list_gen (fun l ->
        Htrace.elements (Htrace.of_list l) = IntSet.elements (IntSet.of_list l));
    test "union/inter/diff agree with the reference set"
      QCheck.(pair obs_list_gen obs_list_gen)
      (fun (a, b) ->
        let ha = Htrace.of_list a and hb = Htrace.of_list b in
        let sa = IntSet.of_list a and sb = IntSet.of_list b in
        Htrace.elements (Htrace.union ha hb)
        = IntSet.elements (IntSet.union sa sb)
        && Htrace.elements (Htrace.inter ha hb)
           = IntSet.elements (IntSet.inter sa sb)
        && Htrace.elements (Htrace.diff ha hb)
           = IntSet.elements (IntSet.diff sa sb));
    test "subset/equal/mem/cardinal agree with the reference set"
      QCheck.(triple obs_list_gen obs_list_gen obs_gen)
      (fun (a, b, x) ->
        let ha = Htrace.of_list a and hb = Htrace.of_list b in
        let sa = IntSet.of_list a and sb = IntSet.of_list b in
        Htrace.subset ha hb = IntSet.subset sa sb
        && Htrace.equal ha hb = IntSet.equal sa sb
        && Htrace.mem x ha = IntSet.mem x sa
        && Htrace.cardinal ha = IntSet.cardinal sa
        && Htrace.is_empty ha = IntSet.is_empty sa);
    test "add/iter/fold agree with the reference set"
      QCheck.(pair obs_list_gen obs_gen)
      (fun (l, x) ->
        let h = Htrace.add x (Htrace.of_list l) in
        let s = IntSet.add x (IntSet.of_list l) in
        Htrace.elements h = IntSet.elements s
        && Htrace.fold List.cons h [] = IntSet.fold List.cons s []
        &&
        let acc = ref [] in
        Htrace.iter (fun i -> acc := i :: !acc) h;
        !acc = IntSet.fold List.cons s []);
    test "compare is antisymmetric and consistent with equal"
      QCheck.(pair obs_list_gen obs_list_gen)
      (fun (a, b) ->
        let ha = Htrace.of_list a and hb = Htrace.of_list b in
        compare (Htrace.compare ha hb) 0 = -compare (Htrace.compare hb ha) 0
        && Htrace.equal ha hb = (Htrace.compare ha hb = 0));
    test ~count:20 "out-of-range observations raise"
      QCheck.(oneofl [ -1; -63; Htrace.width; Htrace.width + 5; max_int ])
      (fun i ->
        let raises f =
          match f () with
          | exception Invalid_argument _ -> true
          | (_ : Htrace.t) -> false
        in
        raises (fun () -> Htrace.singleton i)
        && raises (fun () -> Htrace.add i Htrace.empty)
        && raises (fun () -> Htrace.of_list [ 0; i ]));
    (let planes = Htrace.Planes.create () in
     test ~count:300 "threshold planes agree with per-observation counts"
       QCheck.(
         quad (oneofl [ 64; 128 ]) (int_range 0 5) (int_range 1 8)
           (pair (int_range 1 5) int))
       (fun (domain, threshold, reps, (slots, seed)) ->
         (* Each slot draws its traces from a few observations of its
            own, so counts above 1 are common; one [planes] value serves
            every case, so [reset] must forget the previous one. *)
         let rng = Random.State.make [| seed |] in
         let pool =
           Array.init slots (fun _ ->
               Array.init 6 (fun _ -> Random.State.int rng domain))
         in
         let traces =
           Array.init reps (fun _ ->
               Array.init slots (fun s ->
                   List.filter_map
                     (fun o -> if Random.State.bool rng then Some o else None)
                     (Array.to_list pool.(s))))
         in
         Htrace.Planes.reset planes ~slots ~threshold ~domain;
         Array.iter
           (Array.iteri (fun s l -> Htrace.Planes.add planes s (Htrace.of_list l)))
           traces;
         List.for_all
           (fun s ->
             let count o =
               Array.fold_left
                 (fun c rep -> if List.mem o rep.(s) then c + 1 else c)
                 0 traces
             in
             let naive =
               List.filter (fun o -> count o >= threshold) (List.init domain Fun.id)
             in
             Htrace.elements (Htrace.Planes.result planes s) = naive)
           (List.init slots Fun.id)));
  ]

(* --- Input-state templates: copy_into restores exactly ----------------------------- *)

let template_props =
  [
    test ~count:100 "copy_into-restored scratch equals a fresh to_state"
      QCheck.(triple seed_gen seed_gen (int_range 1 6))
      (fun (seed_a, seed_b, entropy) ->
        let input = { Input.seed = seed_a; entropy } in
        let tpl = Input.to_state input in
        (* dirty the scratch with a different input's state first *)
        let scratch = Input.to_state { Input.seed = seed_b; entropy } in
        State.copy_into tpl ~dst:scratch;
        let fresh = Input.to_state input in
        State.equal_arch scratch fresh && scratch.State.pc = fresh.State.pc);
    test ~count:30 "restoring does not disturb the template itself"
      QCheck.(pair seed_gen seed_gen)
      (fun (seed_a, seed_b) ->
        let input = { Input.seed = seed_a; entropy = 3 } in
        let tpl = Input.to_state input in
        let scratch = Input.to_state { Input.seed = seed_b; entropy = 3 } in
        State.copy_into tpl ~dst:scratch;
        (* run a program on the scratch; the template must stay pristine *)
        State.set_reg scratch Reg.RAX Width.W64 0x4242L;
        Memory.write scratch.State.mem ~addr:Layout.sandbox_base Width.W64 99L;
        State.equal_arch tpl (Input.to_state input));
    test ~count:30 "Input.templates matches per-input to_state"
      QCheck.(pair seed_gen (int_range 1 8))
      (fun (seed, n) ->
        let inputs =
          Input.generate_many (Prng.create ~seed) ~entropy:2 ~n
        in
        let tpls = Input.templates inputs in
        List.for_all2
          (fun i tpl -> State.equal_arch tpl (Input.to_state i))
          inputs (Array.to_list tpls));
  ]

(* --- Input ---------------------------------------------------------------------- *)

let input_props =
  [
    test "inputs are reproducible from their seed" seed_gen (fun seed ->
        let i = { Input.seed; entropy = 2 } in
        State.equal_arch (Input.to_state i) (Input.to_state i));
    test "entropy bound holds" QCheck.(pair seed_gen (int_range 1 6))
      (fun (seed, entropy) ->
        let s = Input.to_state { Input.seed; entropy } in
        List.for_all
          (fun r ->
            let v = State.get_reg s r Width.W64 in
            Int64.unsigned_compare v (Int64.of_int ((1 lsl entropy) * 64)) < 0)
          Reg.gen_pool);
  ]

let () =
  Alcotest.run "properties"
    [
      ("word_flags", word_props);
      ("memory", memory_props);
      ("cache_htrace", cache_props);
      ("htrace_bitset", htrace_bitset_props);
      ("templates", template_props);
      ("analyzer", analyzer_props);
      ("ctrace", ctrace_props);
      ("generator", generator_props);
      ("cpu_soundness", cpu_props);
      ("input", input_props);
      ("rotation", rotation_props);
      ("executor", executor_props);
    ]
