(* Unit tests for the ISA layer: registers, conditions, operands,
   instructions, programs, the catalog and the assembly parser. *)

open Revizor_isa

let check = Alcotest.check
let tc = Alcotest.test_case

(* Alcotest testable shorthands *)
let bool = Alcotest.bool
let int = Alcotest.int
let int64 = Alcotest.int64
let string = Alcotest.string
let _ = (bool, int, int64, string)

(* --- Reg ------------------------------------------------------------ *)

let reg_tests =
  [
    tc "index/of_index roundtrip" `Quick (fun () ->
        List.iter
          (fun r -> check bool "roundtrip" true (Reg.equal r (Reg.of_index (Reg.index r))))
          Reg.all);
    tc "names at widths" `Quick (fun () ->
        check string "rax64" "RAX" (Reg.name Reg.RAX Width.W64);
        check string "rax32" "EAX" (Reg.name Reg.RAX Width.W32);
        check string "rax16" "AX" (Reg.name Reg.RAX Width.W16);
        check string "rax8" "AL" (Reg.name Reg.RAX Width.W8);
        check string "r8w" "R8W" (Reg.name Reg.R8 Width.W16);
        check string "sil" "SIL" (Reg.name Reg.RSI Width.W8));
    tc "of_name parses all names" `Quick (fun () ->
        List.iter
          (fun r ->
            List.iter
              (fun w ->
                match Reg.of_name (Reg.name r w) with
                | Some (r', w') ->
                    check bool "reg" true (Reg.equal r r');
                    check bool "width" true (Width.equal w w')
                | None -> Alcotest.failf "unparsed %s" (Reg.name r w))
              Width.all)
          Reg.all);
    tc "of_name case-insensitive and rejects junk" `Quick (fun () ->
        check bool "lowercase" true (Reg.of_name "rbx" = Some (Reg.RBX, Width.W64));
        check bool "junk" true (Reg.of_name "RXX" = None));
    tc "special registers" `Quick (fun () ->
        check bool "sandbox" true (Reg.equal Reg.sandbox_base Reg.R14);
        check bool "stack" true (Reg.equal Reg.stack_pointer Reg.RSP);
        check int "pool size" 4 (List.length Reg.gen_pool));
  ]

(* --- Cond ------------------------------------------------------------ *)

let cond_tests =
  [
    tc "negate is an involution" `Quick (fun () ->
        List.iter
          (fun c -> check bool "double negate" true (Cond.equal c (Cond.negate (Cond.negate c))))
          Cond.all);
    tc "negate differs" `Quick (fun () ->
        List.iter
          (fun c -> check bool "differs" false (Cond.equal c (Cond.negate c)))
          Cond.all);
    tc "suffix roundtrip" `Quick (fun () ->
        List.iter
          (fun c ->
            match Cond.of_suffix (Cond.suffix c) with
            | Some c' -> check bool "roundtrip" true (Cond.equal c c')
            | None -> Alcotest.failf "unparsed %s" (Cond.suffix c))
          Cond.all);
    tc "aliases" `Quick (fun () ->
        check bool "E=Z" true (Cond.of_suffix "E" = Some Cond.Z);
        check bool "NAE=B" true (Cond.of_suffix "nae" = Some Cond.B);
        check bool "junk" true (Cond.of_suffix "QQ" = None));
    tc "sixteen conditions" `Quick (fun () ->
        check int "count" 16 (List.length Cond.all));
  ]

(* --- Operand ---------------------------------------------------------- *)

let operand_tests =
  [
    tc "printing" `Quick (fun () ->
        let p op = Format.asprintf "%a" Operand.pp op in
        check string "reg" "EBX" (p (Operand.reg ~w:Width.W32 Reg.RBX));
        check string "imm" "42" (p (Operand.imm 42));
        check string "mem"
          "qword ptr [R14 + RAX]"
          (p (Operand.sandbox Reg.RAX));
        check string "mem disp"
          "byte ptr [R14 + RCX + 35]"
          (p (Operand.sandbox ~w:Width.W8 ~disp:35 Reg.RCX));
        check string "scaled"
          "qword ptr [RAX + RBX*4 + 8]"
          (p (Operand.mem ~base:Reg.RAX ~index:Reg.RBX ~scale:4 ~disp:8 ())));
    tc "bad scale rejected" `Quick (fun () ->
        Alcotest.check_raises "scale 3" (Invalid_argument "Operand.mem: scale 3")
          (fun () -> ignore (Operand.mem ~scale:3 ())));
    tc "regs_read" `Quick (fun () ->
        check int "mem regs" 2
          (List.length (Operand.regs_read (Operand.sandbox Reg.RAX)));
        check int "imm regs" 0 (List.length (Operand.regs_read (Operand.imm 1))));
    tc "width" `Quick (fun () ->
        check bool "imm none" true (Operand.width (Operand.imm 3) = None);
        check bool "mem w8" true
          (Operand.width (Operand.sandbox ~w:Width.W8 Reg.RAX) = Some Width.W8));
  ]

(* --- Instruction ------------------------------------------------------- *)

let i_add = Instruction.binop Opcode.Add (Operand.reg Reg.RAX) (Operand.imm 1)

let instruction_tests =
  [
    tc "validate accepts common shapes" `Quick (fun () ->
        let ok i =
          match Instruction.validate i with
          | Ok () -> ()
          | Error e -> Alcotest.failf "rejected %s: %s" (Instruction.to_string i) e
        in
        ok i_add;
        ok (Instruction.mov (Operand.sandbox Reg.RBX) (Operand.reg Reg.RCX));
        ok (Instruction.jcc Cond.Z "somewhere");
        ok (Instruction.div (Operand.reg ~w:Width.W32 Reg.RCX));
        ok (Instruction.cmov Cond.A (Operand.reg Reg.RAX) (Operand.reg Reg.RBX));
        ok (Instruction.setcc Cond.S (Operand.reg ~w:Width.W8 Reg.RAX));
        ok Instruction.ret;
        ok Instruction.lfence);
    tc "validate rejects bad shapes" `Quick (fun () ->
        let bad i = check bool (Instruction.to_string i) true (Result.is_error (Instruction.validate i)) in
        bad (Instruction.binop Opcode.Add (Operand.imm 1) (Operand.imm 2));
        bad (Instruction.binop Opcode.Add (Operand.sandbox Reg.RAX) (Operand.sandbox Reg.RBX));
        bad (Instruction.binop Opcode.Mov (Operand.reg ~w:Width.W32 Reg.RAX) (Operand.reg ~w:Width.W64 Reg.RBX));
        bad (Instruction.div (Operand.reg ~w:Width.W8 Reg.RCX));
        bad (Instruction.setcc Cond.Z (Operand.reg Reg.RAX));
        bad (Instruction.make (Opcode.Jcc Cond.Z)));
    tc "loads/stores classification" `Quick (fun () ->
        let l i = Instruction.loads i and s i = Instruction.stores i in
        let rmw = Instruction.binop Opcode.Sub (Operand.sandbox Reg.RAX) (Operand.imm 1) in
        check bool "rmw loads" true (l rmw);
        check bool "rmw stores" true (s rmw);
        let load = Instruction.mov (Operand.reg Reg.RBX) (Operand.sandbox Reg.RAX) in
        check bool "load loads" true (l load);
        check bool "load !stores" false (s load);
        let store = Instruction.mov (Operand.sandbox Reg.RAX) (Operand.reg Reg.RBX) in
        check bool "store !loads" false (l store);
        check bool "store stores" true (s store);
        let cmp_mem = Instruction.binop Opcode.Cmp (Operand.sandbox Reg.RAX) (Operand.imm 0) in
        check bool "cmp loads" true (l cmp_mem);
        check bool "cmp !stores" false (s cmp_mem);
        check bool "ret loads" true (l Instruction.ret);
        check bool "call stores" true (s (Instruction.call "f"));
        check bool "add r,r neither" false (l i_add || s i_add));
    tc "regs_read/written" `Quick (fun () ->
        let store = Instruction.mov (Operand.sandbox Reg.RAX) (Operand.reg Reg.RBX) in
        check bool "store reads RAX(addr) RBX(data) R14(base)" true
          (List.sort compare (Instruction.regs_read store)
          = List.sort compare [ Reg.RAX; Reg.RBX; Reg.R14 ]);
        check int "store writes none" 0 (List.length (Instruction.regs_written store));
        let div = Instruction.div (Operand.reg Reg.RCX) in
        check bool "div reads rax rdx rcx" true (List.length (Instruction.regs_read div) = 3);
        check bool "div writes rax rdx" true (List.length (Instruction.regs_written div) = 2);
        let cmov = Instruction.cmov Cond.Z (Operand.reg Reg.RAX) (Operand.reg Reg.RBX) in
        check bool "cmov does not read dst reg" true
          (not (List.mem Reg.RAX (Instruction.regs_read cmov))));
    tc "printing with lock and labels" `Quick (fun () ->
        let locked =
          Instruction.make ~lock:true
            ~operands:[ Operand.sandbox ~w:Width.W8 Reg.RAX; Operand.imm 35 ]
            Opcode.Sub
        in
        check string "lock sub" "LOCK SUB byte ptr [R14 + RAX], 35"
          (Instruction.to_string locked);
        check string "jns" "JNS .bb1" (Instruction.to_string (Instruction.jcc Cond.NS "bb1")));
  ]

(* --- Program ------------------------------------------------------------ *)

let sample_program =
  Program.make
    [
      Program.block "bb0" [ i_add; Instruction.jcc Cond.NS "bb2" ];
      Program.block "bb1" [ Instruction.nop ];
      Program.block "bb2" [ Instruction.nop ];
    ]

let program_tests =
  [
    tc "flatten resolves labels" `Quick (fun () ->
        let f = Program.flatten_exn sample_program in
        check int "length" 4 (Array.length f.Program.code);
        check int "jcc target" 3 f.Program.target.(1);
        check int "no target" (-1) f.Program.target.(0));
    tc "flatten rejects bad labels" `Quick (fun () ->
        let dup = Program.make [ Program.block "a" []; Program.block "a" [] ] in
        check bool "duplicate" true (Result.is_error (Program.flatten dup));
        let undef = Program.make [ Program.block "a" [ Instruction.jmp "nope" ] ] in
        check bool "undefined" true (Result.is_error (Program.flatten undef)));
    tc "validate rejects backward branches" `Quick (fun () ->
        let loop =
          Program.make
            [
              Program.block "a" [ Instruction.nop ];
              Program.block "b" [ Instruction.jmp "a" ];
            ]
        in
        check bool "loop rejected" true (Result.is_error (Program.validate loop));
        check bool "dag ok" true (Result.is_ok (Program.validate sample_program)));
    tc "map_insts and counters" `Quick (fun () ->
        check int "insts" 4 (Program.num_insts sample_program);
        check int "blocks" 3 (Program.num_blocks sample_program);
        let doubled = Program.map_insts (fun i -> [ i; i ]) sample_program in
        check int "doubled" 8 (Program.num_insts doubled);
        let erased = Program.map_insts (fun _ -> []) sample_program in
        check int "erased" 0 (Program.num_insts erased));
  ]

(* --- Catalog -------------------------------------------------------------- *)

let catalog_tests =
  [
    tc "subset sizes are plausible and ordered" `Quick (fun () ->
        let ar = Catalog.count [ Catalog.AR ] in
        let ar_mem = Catalog.count [ Catalog.AR; Catalog.MEM ] in
        let ar_mem_var = Catalog.count [ Catalog.AR; Catalog.MEM; Catalog.VAR ] in
        let with_cb = Catalog.count [ Catalog.AR; Catalog.CB ] in
        check bool "AR large" true (ar > 150);
        check bool "MEM adds" true (ar_mem > ar + 100);
        check int "VAR adds 12" (ar_mem + 12) ar_mem_var;
        check int "CB adds 17" (ar + 17) with_cb);
    tc "subsets are idempotent unions" `Quick (fun () ->
        check int "dup subset" (Catalog.count [ Catalog.AR ])
          (Catalog.count [ Catalog.AR; Catalog.AR ]));
    tc "body specs exclude terminators" `Quick (fun () ->
        let body = Catalog.body_specs [ Catalog.AR; Catalog.CB ] in
        check bool "no terminators" true
          (List.for_all (fun s -> not s.Catalog.terminator) body));
    tc "all specs validate when instantiated plainly" `Quick (fun () ->
        (* every non-terminator spec must describe a shape the emulator
           accepts *)
        let instantiate (s : Catalog.spec) =
          let operand pos kind =
            let w =
              match (pos, s.Catalog.src_width) with
              | 1, Some ws -> ws
              | _ -> s.Catalog.width
            in
            match kind with
            | Catalog.KReg -> Operand.reg ~w Reg.RAX
            | Catalog.KImm -> Operand.imm 1
            | Catalog.KMem -> Operand.sandbox ~w Reg.RBX
            | Catalog.KCl -> Operand.Reg (Reg.RCX, Width.W8)
          in
          Instruction.make ~operands:(List.mapi operand s.Catalog.shape) s.Catalog.opcode
        in
        List.iter
          (fun s ->
            match Instruction.validate (instantiate s) with
            | Ok () -> ()
            | Error e -> Alcotest.failf "spec %s: %s" (Catalog.spec_name s) e)
          (Catalog.body_specs [ Catalog.AR; Catalog.MEM; Catalog.VAR ]));
    tc "spec names are unique within the full catalog" `Quick (fun () ->
        let names =
          List.map Catalog.spec_name
            (Catalog.specs
               [ Catalog.AR; Catalog.MEM; Catalog.VAR; Catalog.CB; Catalog.IND ])
        in
        let dups =
          List.filter
            (fun n -> List.length (List.filter (String.equal n) names) > 1)
            (List.sort_uniq compare names)
        in
        if dups <> [] then
          Alcotest.failf "duplicate spec names: %s" (String.concat ", " dups));
    tc "subset_of_string" `Quick (fun () ->
        check bool "ar" true (Catalog.subset_of_string "ar" = Ok Catalog.AR);
        check bool "bad" true (Result.is_error (Catalog.subset_of_string "xyz")));
  ]

(* --- Asm parser -------------------------------------------------------------- *)

let parser_tests =
  [
    tc "single instructions" `Quick (fun () ->
        let ok s =
          match Asm_parser.parse_instruction s with
          | Ok i -> i
          | Error e -> Alcotest.failf "parse %S: %s" s e
        in
        check string "add" "ADD RAX, 1" (Instruction.to_string (ok "ADD RAX, 1"));
        check string "lock sub"
          "LOCK SUB byte ptr [R14 + RAX], 35"
          (Instruction.to_string (ok "LOCK SUB byte ptr [R14 + RAX], 35"));
        check string "binary imm" "AND RAX, 4032"
          (Instruction.to_string (ok "AND RAX, 0b111111000000"));
        check string "jns" "JNS .bb1" (Instruction.to_string (ok "JNS .bb1"));
        check string "cmov mem"
          "CMOVBE RCX, qword ptr [R14 + RDX]"
          (Instruction.to_string (ok "CMOVBE RCX, qword ptr [R14 + RDX]")));
    tc "rejects garbage" `Quick (fun () ->
        check bool "mnemonic" true (Result.is_error (Asm_parser.parse_instruction "FROB RAX"));
        check bool "operand" true (Result.is_error (Asm_parser.parse_instruction "ADD RAX, @"));
        check bool "shape" true (Result.is_error (Asm_parser.parse_instruction "ADD 1, RAX")));
    tc "program with labels and comments" `Quick (fun () ->
        let text =
          "# a comment\n.bb0:\n  AND RAX, 4032\n  JNS .bb1\n  JMP .bb2\n.bb1:  ; \
           tail\n  NOP\n.bb2:\n  NOP\n"
        in
        match Asm_parser.parse_program text with
        | Error e -> Alcotest.fail e
        | Ok p ->
            check int "blocks" 3 (Program.num_blocks p);
            check int "insts" 5 (Program.num_insts p);
            check bool "valid" true (Result.is_ok (Program.validate p)));
    tc "roundtrip printed programs" `Quick (fun () ->
        let roundtrip p =
          match Asm_parser.parse_program (Program.to_string p) with
          | Ok p' -> check string "text equal" (Program.to_string p) (Program.to_string p')
          | Error e -> Alcotest.failf "roundtrip: %s" e
        in
        roundtrip sample_program);
    tc "damaged listings never raise" `Quick (fun () ->
        (* Generated programs' listings, truncated and byte-flipped at 32
           offsets spread over each: the parser answers [Ok] or [Error],
           never an exception. *)
        let module Gen = Revizor.Generator in
        let prng = Revizor.Prng.create ~seed:5L in
        let cfg = Gen.grow (Gen.grow Gen.default_cfg) in
        let replace text off c =
          String.mapi (fun i x -> if i = off then c else x) text
        in
        let flip text off mask =
          replace text off (Char.chr (Char.code text.[off] lxor mask))
        in
        for program = 1 to 20 do
          let text = Program.to_string (Gen.generate prng cfg) in
          let n = String.length text in
          for k = 0 to 31 do
            let off = k * n / 32 in
            let damaged =
              String.sub text 0 off
              :: List.map (flip text off) [ 0x01; 0x08; 0x20; 0x80; 0xff ]
              @ List.map (replace text off) [ '\n'; ' '; ','; '['; '-'; '9'; '.' ]
            in
            List.iter
              (fun d ->
                match Asm_parser.parse_program d with
                | Ok _ | Error _ -> ()
                | exception e ->
                    Alcotest.failf "program %d, offset %d: %s\n%s" program off
                      (Printexc.to_string e) d)
              damaged
          done
        done);
  ]

let () =
  Alcotest.run "isa"
    [
      ("reg", reg_tests);
      ("cond", cond_tests);
      ("operand", operand_tests);
      ("instruction", instruction_tests);
      ("program", program_tests);
      ("catalog", catalog_tests);
      ("asm_parser", parser_tests);
    ]
