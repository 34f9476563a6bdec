(* Unit tests for the architectural emulator: word ops, flag semantics
   (checked against Intel SDM vectors), memory, state and instruction
   semantics. *)

open Revizor_isa
open Revizor_emu

let check = Alcotest.check
let tc = Alcotest.test_case

(* Alcotest testable shorthands *)
let bool = Alcotest.bool
let int = Alcotest.int
let int64 = Alcotest.int64
let string = Alcotest.string
let _ = (bool, int, int64, string)

(* --- Word ----------------------------------------------------------- *)

let word_tests =
  [
    tc "zext" `Quick (fun () ->
        check int64 "w8" 0xFFL (Word.zext Width.W8 0x1FFL);
        check int64 "w32" 0xFFFF_FFFFL (Word.zext Width.W32 (-1L));
        check int64 "w64" (-1L) (Word.zext Width.W64 (-1L)));
    tc "sext" `Quick (fun () ->
        check int64 "w8 neg" (-1L) (Word.sext Width.W8 0xFFL);
        check int64 "w8 pos" 0x7FL (Word.sext Width.W8 0x7FL);
        check int64 "w32 neg" (-2L) (Word.sext Width.W32 0xFFFF_FFFEL));
    tc "sign_set" `Quick (fun () ->
        check bool "w8" true (Word.sign_set Width.W8 0x80L);
        check bool "w8 clear" false (Word.sign_set Width.W8 0x7FL);
        check bool "w64" true (Word.sign_set Width.W64 Int64.min_int));
    tc "parity of low byte" `Quick (fun () ->
        check bool "0x00" true (Word.parity_even 0L);
        check bool "0x03" true (Word.parity_even 3L);
        check bool "0x01" false (Word.parity_even 1L);
        check bool "ignores high byte" false (Word.parity_even 0x301L));
    tc "merge" `Quick (fun () ->
        let old = 0x1122_3344_5566_7788L in
        check int64 "w8" 0x1122_3344_5566_77FFL (Word.merge Width.W8 ~old 0xFFL);
        check int64 "w16" 0x1122_3344_5566_FFFFL (Word.merge Width.W16 ~old 0xFFFFL);
        check int64 "w32 zeroes upper" 0xFFFF_FFFFL
          (Word.merge Width.W32 ~old 0xFFFF_FFFFL);
        check int64 "w64" (-1L) (Word.merge Width.W64 ~old (-1L)));
    tc "unsigned comparisons" `Quick (fun () ->
        check bool "ult" true (Word.ult 1L 2L);
        check bool "ult wrap" true (Word.ult 1L (-1L));
        check bool "ule eq" true (Word.ule 5L 5L));
  ]

(* --- Flags ------------------------------------------------------------ *)

let flag_vec name (got : Flags.t) ~cf ~zf ~sf ~o_f ~af ~pf =
  check bool (name ^ " cf") cf (Flags.cf got);
  check bool (name ^ " zf") zf (Flags.zf got);
  check bool (name ^ " sf") sf (Flags.sf got);
  check bool (name ^ " of") o_f (Flags.o_f got);
  check bool (name ^ " af") af (Flags.af got);
  check bool (name ^ " pf") pf (Flags.pf got)

let flags_tests =
  [
    tc "ADD vectors (SDM)" `Quick (fun () ->
        flag_vec "0xFF+1"
          (Flags.after_add Width.W8 ~a:0xFFL ~b:1L ~carry_in:false ~r:0L)
          ~cf:true ~zf:true ~sf:false ~o_f:false ~af:true ~pf:true;
        flag_vec "0x7F+1"
          (Flags.after_add Width.W8 ~a:0x7FL ~b:1L ~carry_in:false ~r:0x80L)
          ~cf:false ~zf:false ~sf:true ~o_f:true ~af:true ~pf:false;
        flag_vec "5+3"
          (Flags.after_add Width.W8 ~a:5L ~b:3L ~carry_in:false ~r:8L)
          ~cf:false ~zf:false ~sf:false ~o_f:false ~af:false ~pf:false;
        flag_vec "max64+1"
          (Flags.after_add Width.W64 ~a:(-1L) ~b:1L ~carry_in:false ~r:0L)
          ~cf:true ~zf:true ~sf:false ~o_f:false ~af:true ~pf:true);
    tc "ADC carry chains" `Quick (fun () ->
        flag_vec "0xFF+0+c"
          (Flags.after_add Width.W8 ~a:0xFFL ~b:0L ~carry_in:true ~r:0L)
          ~cf:true ~zf:true ~sf:false ~o_f:false ~af:true ~pf:true;
        let f = Flags.after_add Width.W64 ~a:5L ~b:0L ~carry_in:true ~r:6L in
        check bool "no spurious carry" false (Flags.cf f));
    tc "SUB vectors (SDM)" `Quick (fun () ->
        flag_vec "0-1"
          (Flags.after_sub Width.W8 ~a:0L ~b:1L ~borrow_in:false ~r:0xFFL)
          ~cf:true ~zf:false ~sf:true ~o_f:false ~af:true ~pf:true;
        flag_vec "0x80-1"
          (Flags.after_sub Width.W8 ~a:0x80L ~b:1L ~borrow_in:false ~r:0x7FL)
          ~cf:false ~zf:false ~sf:false ~o_f:true ~af:true ~pf:false;
        flag_vec "5-5-borrow"
          (Flags.after_sub Width.W64 ~a:5L ~b:5L ~borrow_in:true ~r:(-1L))
          ~cf:true ~zf:false ~sf:true ~o_f:false ~af:true ~pf:true);
    tc "logic clears CF/OF/AF" `Quick (fun () ->
        flag_vec "and"
          (Flags.after_logic Width.W8 ~r:0x80L)
          ~cf:false ~zf:false ~sf:true ~o_f:false ~af:false ~pf:false);
    tc "INC/DEC preserve CF" `Quick (fun () ->
        let carry =
          Flags.make ~cf:true ~pf:false ~af:false ~zf:false ~sf:false ~o_f:false
        in
        let f = Flags.after_inc Width.W8 carry ~a:0xFFL ~r:0L in
        check bool "inc keeps cf" true (Flags.cf f);
        check bool "inc zf" true (Flags.zf f);
        check bool "inc of" false (Flags.o_f f);
        let f = Flags.after_dec Width.W8 Flags.empty ~a:0L ~r:0xFFL in
        check bool "dec keeps cf clear" false (Flags.cf f);
        check bool "dec sf" true (Flags.sf f));
    tc "NEG" `Quick (fun () ->
        let f = Flags.after_neg Width.W8 ~a:0L ~r:0L in
        check bool "neg 0 cf" false (Flags.cf f);
        check bool "neg 0 zf" true (Flags.zf f);
        let f = Flags.after_neg Width.W8 ~a:1L ~r:0xFFL in
        check bool "neg 1 cf" true (Flags.cf f));
    tc "IMUL overflow flag" `Quick (fun () ->
        let f = Flags.after_imul Width.W16 ~full_overflow:true ~r:0L in
        check bool "cf" true (Flags.cf f);
        check bool "of" true (Flags.o_f f));
    tc "shift vectors" `Quick (fun () ->
        let f =
          Flags.after_shift Width.W8 Flags.empty ~op:`Shl ~a:0x81L ~count:1 ~r:0x02L
        in
        check bool "shl cf = bit out" true (Flags.cf f);
        check bool "shl of" true (Flags.o_f f);
        let f =
          Flags.after_shift Width.W8 Flags.empty ~op:`Shr ~a:0x01L ~count:1 ~r:0L
        in
        check bool "shr cf" true (Flags.cf f);
        check bool "shr zf" true (Flags.zf f);
        check bool "shr of = msb(a)" false (Flags.o_f f);
        let f =
          Flags.after_shift Width.W8 Flags.empty ~op:`Sar ~a:0x80L ~count:1 ~r:0xC0L
        in
        check bool "sar cf" false (Flags.cf f);
        check bool "sar of" false (Flags.o_f f);
        let before =
          Flags.make ~cf:true ~pf:false ~af:false ~zf:true ~sf:false ~o_f:false
        in
        let f = Flags.after_shift Width.W8 before ~op:`Shl ~a:1L ~count:0 ~r:1L in
        check bool "count 0 untouched" true (Flags.equal before f));
    tc "eval_cond coherence" `Quick (fun () ->
        let f =
          Flags.make ~cf:true ~pf:false ~af:false ~zf:true ~sf:false ~o_f:false
        in
        check bool "Z" true (Flags.eval_cond f Cond.Z);
        check bool "BE" true (Flags.eval_cond f Cond.BE);
        check bool "A" false (Flags.eval_cond f Cond.A);
        List.iter
          (fun c ->
            check bool "negation" true
              (Flags.eval_cond f c = not (Flags.eval_cond f (Cond.negate c))))
          Cond.all);
    tc "to_word/of_word roundtrip" `Quick (fun () ->
        let f = Flags.make ~cf:true ~pf:false ~af:true ~zf:false ~sf:true ~o_f:true in
        check bool "roundtrip" true (Flags.equal f (Flags.of_word (Flags.to_word f)));
        check int64 "bit positions (CF=0, OF=11)" 0x801L
          (Flags.to_word
             (Flags.make ~cf:true ~pf:false ~af:false ~zf:false ~sf:false ~o_f:true)));
  ]

let flat_of insts = Program.flatten_exn (Program.of_insts insts)

let run_insts ?before insts =
  let s = State.create () in
  (match before with Some f -> f s | None -> ());
  let outcomes = Semantics.run (flat_of insts) s in
  (s, outcomes)

let r64 = Operand.reg
let imm = Operand.imm

(* --- Table-driven SDM vectors ------------------------------------------- *)

(* Each row: width, a, b, expected result and full flag set, checked
   against the Intel SDM's worked examples. This complements the
   hand-picked cases above with systematic coverage across widths. *)

let add_vectors =
  (* (width, a, b, result, cf, zf, sf, of, af, pf) *)
  [
    (Width.W8, 0x00L, 0x00L, 0x00L, false, true, false, false, false, true);
    (Width.W8, 0x0FL, 0x01L, 0x10L, false, false, false, false, true, false);
    (Width.W8, 0xF0L, 0x20L, 0x10L, true, false, false, false, false, false);
    (Width.W8, 0x80L, 0x80L, 0x00L, true, true, false, true, false, true);
    (Width.W16, 0x7FFFL, 0x0001L, 0x8000L, false, false, true, true, true, true);
    (Width.W16, 0xFFFFL, 0x0001L, 0x0000L, true, true, false, false, true, true);
    (Width.W32, 0x7FFF_FFFFL, 0x7FFF_FFFFL, 0xFFFF_FFFEL, false, false, true, true, true, false);
    (Width.W32, 0xFFFF_FFFFL, 0xFFFF_FFFFL, 0xFFFF_FFFEL, true, false, true, false, true, false);
    (Width.W64, 0x7FFF_FFFF_FFFF_FFFFL, 1L, 0x8000_0000_0000_0000L, false, false, true, true, true, true);
    (Width.W64, -1L, -1L, -2L, true, false, true, false, true, false);
  ]

let sub_vectors =
  [
    (Width.W8, 0x10L, 0x01L, 0x0FL, false, false, false, false, true, true);
    (Width.W8, 0x00L, 0x80L, 0x80L, true, false, true, true, false, false);
    (Width.W8, 0x7FL, 0xFFL, 0x80L, true, false, true, true, false, false);
    (Width.W16, 0x8000L, 0x0001L, 0x7FFFL, false, false, false, true, true, true);
    (Width.W32, 0x0000_0001L, 0x0000_0002L, 0xFFFF_FFFFL, true, false, true, false, true, true);
    (Width.W64, 5L, 5L, 0L, false, true, false, false, false, true);
  ]

let vector_tests =
  let run_add (w, a, b, r_exp, cf, zf, sf, o_f, af, pf) =
    let r = Word.zext w (Int64.add a b) in
    check int64
      (Printf.sprintf "add %s result" (Width.to_string w))
      r_exp r;
    flag_vec
      (Printf.sprintf "add %s 0x%Lx+0x%Lx" (Width.to_string w) a b)
      (Flags.after_add w ~a ~b ~carry_in:false ~r)
      ~cf ~zf ~sf ~o_f ~af ~pf
  in
  let run_sub (w, a, b, r_exp, cf, zf, sf, o_f, af, pf) =
    let r = Word.zext w (Int64.sub a b) in
    check int64
      (Printf.sprintf "sub %s result" (Width.to_string w))
      r_exp r;
    flag_vec
      (Printf.sprintf "sub %s 0x%Lx-0x%Lx" (Width.to_string w) a b)
      (Flags.after_sub w ~a ~b ~borrow_in:false ~r)
      ~cf ~zf ~sf ~o_f ~af ~pf
  in
  [
    tc "ADD vector table" `Quick (fun () -> List.iter run_add add_vectors);
    tc "SUB vector table" `Quick (fun () -> List.iter run_sub sub_vectors);
    tc "shift vector table" `Quick (fun () ->
        (* (op, w, a, count, result, cf) *)
        let rows =
          [
            (`Shl, Width.W8, 0x40L, 1, 0x80L, false);
            (`Shl, Width.W8, 0x40L, 2, 0x00L, true);
            (`Shl, Width.W16, 0x8000L, 1, 0x0000L, true);
            (`Shr, Width.W8, 0x80L, 7, 0x01L, false);
            (`Shr, Width.W8, 0x80L, 8, 0x00L, true);
            (`Sar, Width.W8, 0x80L, 7, 0xFFL, false);
            (`Sar, Width.W8, 0xFFL, 4, 0xFFL, true);
            (`Shl, Width.W64, 1L, 63, Int64.min_int, false);
            (`Shr, Width.W64, Int64.min_int, 63, 1L, false);
          ]
        in
        List.iter
          (fun (op, w, a, count, r_exp, cf) ->
            let bits = Width.bits w in
            let r =
              match op with
              | `Shl -> if count >= bits then 0L else Word.zext w (Int64.shift_left (Word.zext w a) count)
              | `Shr -> if count >= bits then 0L else Int64.shift_right_logical (Word.zext w a) count
              | `Sar -> Word.zext w (Int64.shift_right (Word.sext w a) (min count 63))
            in
            check int64 "shift result" r_exp r;
            let f = Flags.after_shift w Flags.empty ~op ~a ~count ~r in
            check bool
              (Printf.sprintf "shift cf (count %d)" count)
              cf (Flags.cf f))
          rows);
    tc "division vector table" `Quick (fun () ->
        (* unsigned: (w, rdx, rax, divisor, quotient, remainder) *)
        let rows =
          [
            (Width.W16, 0L, 100L, 7L, 14L, 2L);
            (Width.W32, 0L, 0xFFFF_FFFFL, 0x10L, 0x0FFF_FFFFL, 0xFL);
            (Width.W32, 2L, 0L, 4L, 0x8000_0000L, 0L);
            (Width.W64, 0L, 1_000_000L, 997L, 1003L, 9L);
          ]
        in
        List.iter
          (fun (w, rdx, rax, divisor, q, rem) ->
            let s, _ =
              run_insts
                ~before:(fun s ->
                  State.set_reg s Reg.RDX Width.W64 rdx;
                  State.set_reg s Reg.RAX Width.W64 rax;
                  State.set_reg s Reg.RCX Width.W64 divisor)
                [ Instruction.div (Operand.reg ~w Reg.RCX) ]
            in
            check int64 "quotient" q (State.get_reg s Reg.RAX w);
            check int64 "remainder" rem (State.get_reg s Reg.RDX w))
          rows);
    tc "signed division vector table" `Quick (fun () ->
        (* (w, dividend (sign-extended into rdx:rax), divisor, q, rem) *)
        let rows =
          [
            (Width.W32, -100L, 7L, -14L, -2L);
            (Width.W32, 100L, -7L, -14L, 2L);
            (Width.W32, -100L, -7L, 14L, -2L);
            (Width.W64, -1_000_000L, 997L, -1003L, -9L);
          ]
        in
        List.iter
          (fun (w, dividend, divisor, q, rem) ->
            let bits = Width.bits w in
            let s, _ =
              run_insts
                ~before:(fun s ->
                  let low = Word.zext w dividend in
                  let high =
                    if bits = 64 then Int64.shift_right dividend 63
                    else Word.zext w (Int64.shift_right dividend bits)
                  in
                  State.set_reg s Reg.RAX Width.W64 low;
                  State.set_reg s Reg.RDX Width.W64 high;
                  State.set_reg s Reg.RCX Width.W64 (Word.zext w divisor))
                [ Instruction.idiv (Operand.reg ~w Reg.RCX) ]
            in
            check int64 "quotient" (Word.zext w q) (State.get_reg s Reg.RAX w);
            check int64 "remainder" (Word.zext w rem) (State.get_reg s Reg.RDX w))
          rows);
  ]

(* --- Memory ------------------------------------------------------------ *)

let byte m off =
  let addr = Int64.add Layout.sandbox_base (Int64.of_int off) in
  Int64.to_int (Memory.read m ~addr Width.W8)

let memory_tests =
  [
    tc "little endian" `Quick (fun () ->
        let m = Memory.create () in
        Memory.write m ~addr:Layout.sandbox_base Width.W32 0x11223344L;
        check int "byte 0" 0x44 (byte m 0);
        check int "byte 3" 0x11 (byte m 3);
        check int64 "read w16" 0x3344L (Memory.read m ~addr:Layout.sandbox_base Width.W16));
    tc "faults outside sandbox" `Quick (fun () ->
        let m = Memory.create () in
        let boom addr w =
          match Memory.read m ~addr w with
          | exception Memory.Fault _ -> ()
          | _ -> Alcotest.failf "no fault at 0x%Lx" addr
        in
        boom 0L Width.W8;
        boom (Int64.sub Layout.sandbox_base 1L) Width.W8;
        boom (Int64.add Layout.sandbox_base (Int64.of_int Layout.sandbox_size)) Width.W8;
        (* last valid byte is fine; an 8-byte access straddling the end faults *)
        let last = Int64.add Layout.sandbox_base (Int64.of_int (Layout.sandbox_size - 1)) in
        check int64 "last byte" 0L (Memory.read m ~addr:last Width.W8);
        boom last Width.W64);
    tc "guard absorbs wide accesses at page end" `Quick (fun () ->
        let m = Memory.create () in
        let addr =
          Int64.add Layout.sandbox_base
            (Int64.of_int ((Layout.data_pages * Layout.page_size) - 1 + 63))
        in
        check int64 "read ok" 0L (Memory.read m ~addr Width.W8));
    tc "inner journal undo keeps outer recording" `Quick (fun () ->
        (* Regression: closing an inner level used to stop recording and
           drop every entry, so the enclosing undo silently missed the
           stores made before and after the inner level. *)
        let m = Memory.create () in
        let a = Layout.sandbox_base and b = Int64.add Layout.sandbox_base 8L in
        Memory.write m ~addr:a Width.W64 42L;
        let outer = Memory.journal_begin m in
        Memory.write m ~addr:a Width.W64 1L;
        let inner = Memory.journal_begin m in
        Memory.write m ~addr:a Width.W64 2L;
        Memory.write m ~addr:b Width.W32 3L;
        Memory.journal_undo m ~mark:inner;
        check int64 "inner undo" 1L (Memory.read m ~addr:a Width.W64);
        check int64 "inner undo, second store" 0L (Memory.read m ~addr:b Width.W64);
        Memory.write m ~addr:b Width.W8 4L;
        Memory.journal_undo m ~mark:outer;
        check int64 "outer undo" 42L (Memory.read m ~addr:a Width.W64);
        check int64 "store after the inner level closed" 0L
          (Memory.read m ~addr:b Width.W64);
        (* The outermost level is closed: recording stopped. *)
        Memory.write m ~addr:a Width.W64 5L;
        check bool "undo without an open level" true
          (match Memory.journal_undo m ~mark:0 with
          | () -> false
          | exception Invalid_argument _ -> true);
        check int64 "unjournaled store stays" 5L (Memory.read m ~addr:a Width.W64));
    tc "fill initializes data pages only" `Quick (fun () ->
        let m = Memory.create () in
        Memory.fill m ~f:(fun off -> off);
        check int "data byte" 255 (byte m 255);
        check int "guard byte" 0
          (byte m (Layout.data_pages * Layout.page_size)));
  ]

(* --- State ------------------------------------------------------------- *)

let state_tests =
  [
    tc "initial registers" `Quick (fun () ->
        let s = State.create () in
        check int64 "r14" Layout.sandbox_base (State.get_reg s Reg.R14 Width.W64);
        check int64 "rsp" Layout.stack_top (State.get_reg s Reg.RSP Width.W64);
        check int64 "rax" 0L (State.get_reg s Reg.RAX Width.W64));
    tc "sub-register writes" `Quick (fun () ->
        let s = State.create () in
        State.set_reg s Reg.RAX Width.W64 0x1122_3344_5566_7788L;
        State.set_reg s Reg.RAX Width.W8 0xFFL;
        check int64 "w8 merge" 0x1122_3344_5566_77FFL (State.get_reg s Reg.RAX Width.W64);
        State.set_reg s Reg.RAX Width.W32 1L;
        check int64 "w32 zeroes" 1L (State.get_reg s Reg.RAX Width.W64));
    tc "save/undo restores the full state" `Quick (fun () ->
        let s = State.create () in
        State.set_reg s Reg.RBX Width.W64 9L;
        s.State.flags <-
          Flags.make ~cf:false ~pf:false ~af:false ~zf:true ~sf:false ~o_f:false;
        let before = State.copy s in
        let outer = State.slot () and inner = State.slot () in
        State.save s outer;
        State.set_reg s Reg.RBX Width.W64 1L;
        s.State.flags <- Flags.empty;
        s.State.pc <- 7;
        Memory.write s.State.mem ~addr:Layout.sandbox_base Width.W8 5L;
        let mid = State.copy s in
        State.save s inner;
        State.set_reg s Reg.RCX Width.W64 2L;
        s.State.pc <- 9;
        Memory.write s.State.mem ~addr:Layout.sandbox_base Width.W64 6L;
        State.undo s inner;
        check bool "inner undo" true (State.equal_arch s mid);
        check int "inner pc" 7 s.State.pc;
        State.undo s outer;
        check bool "outer undo" true (State.equal_arch s before);
        check int64 "reg" 9L (State.get_reg s Reg.RBX Width.W64);
        check bool "flags" true (Flags.zf s.State.flags);
        check int "pc" 0 s.State.pc;
        check int64 "mem" 0L (Memory.read s.State.mem ~addr:Layout.sandbox_base Width.W8));
  ]

(* --- Semantics ----------------------------------------------------------- *)

let semantics_tests =
  [
    tc "mov and arithmetic" `Quick (fun () ->
        let s, _ =
          run_insts
            [
              Instruction.mov (r64 Reg.RAX) (imm 40);
              Instruction.binop Opcode.Add (r64 Reg.RAX) (imm 2);
            ]
        in
        check int64 "rax" 42L (State.get_reg s Reg.RAX Width.W64);
        check bool "no zf" false (Flags.zf s.State.flags));
    tc "adc uses carry" `Quick (fun () ->
        let s, _ =
          run_insts
            [
              Instruction.mov (Operand.reg ~w:Width.W8 Reg.RAX) (imm 0xFF);
              Instruction.binop Opcode.Add (Operand.reg ~w:Width.W8 Reg.RAX) (imm 1);
              (* CF now set *)
              Instruction.binop Opcode.Adc (r64 Reg.RBX) (imm 0);
            ]
        in
        check int64 "rbx = carry" 1L (State.get_reg s Reg.RBX Width.W64));
    tc "memory RMW with lock prefix" `Quick (fun () ->
        let s, outcomes =
          run_insts
            [
              Instruction.make ~lock:true
                ~operands:[ Operand.sandbox ~w:Width.W8 Reg.RAX; imm 35 ]
                Opcode.Sub;
            ]
        in
        check int64 "mem" (Int64.of_int ((0 - 35) land 0xFF))
          (Memory.read s.State.mem ~addr:Layout.sandbox_base Width.W8);
        match outcomes with
        | [ o ] ->
            check int "two accesses" 2 (List.length o.Semantics.accesses);
            check bool "load then store" true
              (match o.Semantics.accesses with
              | [ { Semantics.kind = `Load; _ }; { Semantics.kind = `Store; _ } ] -> true
              | _ -> false)
        | _ -> Alcotest.fail "one outcome expected");
    tc "cmov always writes at 32 bits" `Quick (fun () ->
        let s, _ =
          run_insts
            ~before:(fun s -> State.set_reg s Reg.RAX Width.W64 (-1L))
            [
              Instruction.binop Opcode.Cmp (r64 Reg.RBX) (imm 1);
              (* RBX=0 < 1: B set, so BE true, A false *)
              Instruction.cmov Cond.A
                (Operand.reg ~w:Width.W32 Reg.RAX)
                (Operand.reg ~w:Width.W32 Reg.RCX);
            ]
        in
        (* condition false, but the 32-bit destination write still zeroes
           the upper half *)
        check int64 "upper zeroed" 0xFFFF_FFFFL (State.get_reg s Reg.RAX Width.W64));
    tc "setcc" `Quick (fun () ->
        let s, _ =
          run_insts
            [
              Instruction.binop Opcode.Cmp (r64 Reg.RAX) (imm 0);
              Instruction.setcc Cond.Z (Operand.reg ~w:Width.W8 Reg.RBX);
            ]
        in
        check int64 "rbx" 1L (State.get_reg s Reg.RBX Width.W64));
    tc "division by zero faults" `Quick (fun () ->
        match
          run_insts
            ~before:(fun s -> State.set_reg s Reg.RAX Width.W64 1L)
            [ Instruction.div (Operand.reg ~w:Width.W32 Reg.RCX) ]
        with
        | exception Semantics.Division_fault -> ()
        | _ -> Alcotest.fail "expected Division_fault (divisor 0)");
    tc "unsigned division ok" `Quick (fun () ->
        let s, _ =
          run_insts
            ~before:(fun s ->
              State.set_reg s Reg.RDX Width.W64 1L;
              State.set_reg s Reg.RAX Width.W64 4L;
              State.set_reg s Reg.RCX Width.W64 2L)
            [ Instruction.div (Operand.reg ~w:Width.W32 Reg.RCX) ]
        in
        (* dividend = (1 << 32) + 4 = 0x100000004; /2 = 0x80000002 rem 0 *)
        check int64 "quotient" 0x80000002L (State.get_reg s Reg.RAX Width.W32);
        check int64 "remainder" 0L (State.get_reg s Reg.RDX Width.W32));
    tc "division overflow faults" `Quick (fun () ->
        match
          run_insts
            ~before:(fun s ->
              State.set_reg s Reg.RDX Width.W64 1L;
              State.set_reg s Reg.RCX Width.W64 1L)
            [ Instruction.div (Operand.reg ~w:Width.W16 Reg.RCX) ]
        with
        | exception Semantics.Division_fault -> ()
        | _ -> Alcotest.fail "expected fault");
    tc "signed division" `Quick (fun () ->
        let s, _ =
          run_insts
            ~before:(fun s ->
              State.set_reg s Reg.RAX Width.W32 (Int64.of_int (-7));
              State.set_reg s Reg.RDX Width.W32 (-1L) (* sign extension *);
              State.set_reg s Reg.RCX Width.W64 2L)
            [ Instruction.idiv (Operand.reg ~w:Width.W32 Reg.RCX) ]
        in
        check int64 "quotient -3" (Word.zext Width.W32 (-3L))
          (State.get_reg s Reg.RAX Width.W32);
        check int64 "remainder -1" (Word.zext Width.W32 (-1L))
          (State.get_reg s Reg.RDX Width.W32));
    tc "conditional jumps" `Quick (fun () ->
        let prog =
          Program.make
            [
              Program.block "a"
                [
                  Instruction.binop Opcode.Cmp (r64 Reg.RAX) (imm 0);
                  Instruction.jcc Cond.Z "c";
                ];
              Program.block "b" [ Instruction.mov (r64 Reg.RBX) (imm 1) ];
              Program.block "c" [ Instruction.mov (r64 Reg.RCX) (imm 2) ];
            ]
        in
        let flat = Program.flatten_exn prog in
        let s = State.create () in
        let outcomes = Semantics.run flat s in
        check int64 "skipped b" 0L (State.get_reg s Reg.RBX Width.W64);
        check int64 "ran c" 2L (State.get_reg s Reg.RCX Width.W64);
        check bool "taken recorded" true
          (List.exists (fun o -> o.Semantics.taken = Some true) outcomes));
    tc "call and ret through the stack" `Quick (fun () ->
        let prog =
          Program.make
            [
              Program.block "main" [ Instruction.call "f" ];
              Program.block "after"
                [ Instruction.mov (r64 Reg.RBX) (imm 1); Instruction.jmp "exit" ];
              Program.block "f"
                [ Instruction.mov (r64 Reg.RCX) (imm 2); Instruction.ret ];
              Program.block "exit" [];
            ]
        in
        let flat = Program.flatten_exn prog in
        let s = State.create () in
        ignore (Semantics.run flat s);
        check int64 "callee ran" 2L (State.get_reg s Reg.RCX Width.W64);
        check int64 "returned" 1L (State.get_reg s Reg.RBX Width.W64);
        check int64 "rsp restored" Layout.stack_top (State.get_reg s Reg.RSP Width.W64));
    tc "ret target is masked into code range" `Quick (fun () ->
        check int "mask wraps" 2 (Semantics.mask_code_index ~code_len:4 7L);
        check int "mask end" 4 (Semantics.mask_code_index ~code_len:4 4L);
        List.iter
          (fun v ->
            let idx = Semantics.mask_code_index ~code_len:4 v in
            check bool "in range" true (idx >= 0 && idx <= 4))
          [ -7L; -1L; Int64.min_int; Int64.max_int; 0L ]);
    tc "indirect jump" `Quick (fun () ->
        let s, _ =
          run_insts
            ~before:(fun s -> State.set_reg s Reg.RAX Width.W64 3L)
            [
              Instruction.jmp_ind Reg.RAX;
              Instruction.mov (r64 Reg.RBX) (imm 1);
              Instruction.mov (r64 Reg.RCX) (imm 2);
              Instruction.mov (r64 Reg.RDX) (imm 3);
            ]
        in
        check int64 "skipped rbx" 0L (State.get_reg s Reg.RBX Width.W64);
        check int64 "ran rdx" 3L (State.get_reg s Reg.RDX Width.W64));
    tc "run bounds dynamic loops" `Quick (fun () ->
        (* JMPI to self-index loops forever architecturally; max_steps
           bounds it *)
        let s = State.create () in
        State.set_reg s Reg.RAX Width.W64 0L;
        let flat = flat_of [ Instruction.jmp_ind Reg.RAX ] in
        let outcomes = Semantics.run ~max_steps:17 flat s in
        check int "bounded" 17 (List.length outcomes));
    tc "rotates" `Quick (fun () ->
        let s, _ =
          run_insts
            ~before:(fun s -> State.set_reg s Reg.RAX Width.W64 0x81L)
            [ Instruction.binop Opcode.Rol (Operand.reg ~w:Width.W8 Reg.RAX) (imm 1) ]
        in
        check int64 "rol 0x81,1" 0x03L (State.get_reg s Reg.RAX Width.W8);
        check bool "cf = rotated-in bit" true (Flags.cf s.State.flags);
        let s, _ =
          run_insts
            ~before:(fun s -> State.set_reg s Reg.RAX Width.W64 0x01L)
            [ Instruction.binop Opcode.Ror (Operand.reg ~w:Width.W8 Reg.RAX) (imm 1) ]
        in
        check int64 "ror 0x01,1" 0x80L (State.get_reg s Reg.RAX Width.W8);
        check bool "cf = msb" true (Flags.cf s.State.flags);
        (* rotates do not change ZF *)
        check bool "zf untouched" false (Flags.zf s.State.flags));
    tc "rotate by full width is identity" `Quick (fun () ->
        let s, _ =
          run_insts
            ~before:(fun s -> State.set_reg s Reg.RAX Width.W64 0xA5L)
            [ Instruction.binop Opcode.Rol (Operand.reg ~w:Width.W8 Reg.RAX) (imm 8) ]
        in
        check int64 "unchanged" 0xA5L (State.get_reg s Reg.RAX Width.W8));
    tc "movzx and movsx" `Quick (fun () ->
        let s, _ =
          run_insts
            ~before:(fun s -> State.set_reg s Reg.RBX Width.W64 0xFFL)
            [
              Instruction.binop Opcode.Movzx (r64 Reg.RAX)
                (Operand.reg ~w:Width.W8 Reg.RBX);
              Instruction.binop Opcode.Movsx (r64 Reg.RCX)
                (Operand.reg ~w:Width.W8 Reg.RBX);
            ]
        in
        check int64 "zx" 0xFFL (State.get_reg s Reg.RAX Width.W64);
        check int64 "sx" (-1L) (State.get_reg s Reg.RCX Width.W64));
    tc "movsx from memory" `Quick (fun () ->
        let s, _ =
          run_insts
            ~before:(fun s ->
              Memory.write s.State.mem ~addr:Layout.sandbox_base Width.W16 0x8000L)
            [
              Instruction.binop Opcode.Movsx
                (Operand.reg ~w:Width.W32 Reg.RAX)
                (Operand.mem ~w:Width.W16 ~base:Reg.R14 ());
            ]
        in
        (* 32-bit write zero-extends into the 64-bit container *)
        check int64 "sx16->32" 0xFFFF8000L (State.get_reg s Reg.RAX Width.W64));
    tc "xchg registers and memory" `Quick (fun () ->
        let s, outcomes =
          run_insts
            ~before:(fun s ->
              State.set_reg s Reg.RAX Width.W64 1L;
              State.set_reg s Reg.RBX Width.W64 2L;
              Memory.write s.State.mem ~addr:Layout.sandbox_base Width.W64 9L)
            [
              Instruction.binop Opcode.Xchg (r64 Reg.RAX) (r64 Reg.RBX);
              Instruction.binop Opcode.Xchg
                (Operand.mem ~base:Reg.R14 ())
                (r64 Reg.RBX);
            ]
        in
        check int64 "rax" 2L (State.get_reg s Reg.RAX Width.W64);
        check int64 "rbx <- mem" 9L (State.get_reg s Reg.RBX Width.W64);
        check int64 "mem <- old rbx" 1L
          (Memory.read s.State.mem ~addr:Layout.sandbox_base Width.W64);
        (* the memory form is a load + store *)
        match outcomes with
        | [ _; o ] -> check int "accesses" 2 (List.length o.Semantics.accesses)
        | _ -> Alcotest.fail "two outcomes");
    tc "shift by cl" `Quick (fun () ->
        let s, _ =
          run_insts
            ~before:(fun s ->
              State.set_reg s Reg.RAX Width.W64 1L;
              State.set_reg s Reg.RCX Width.W64 4L)
            [
              Instruction.binop Opcode.Shl (r64 Reg.RAX) (Operand.Reg (Reg.RCX, Width.W8));
            ]
        in
        check int64 "1<<4" 16L (State.get_reg s Reg.RAX Width.W64));
    tc "fences and nop do nothing" `Quick (fun () ->
        let s, outcomes =
          run_insts [ Instruction.lfence; Instruction.mfence; Instruction.nop ]
        in
        check int "three outcomes" 3 (List.length outcomes);
        check bool "state unchanged" true
          (State.equal_arch s (State.create ())));
  ]

(* --- Golden flag vectors ------------------------------------------------ *)

(* [Flags.to_word] of every update rule at all four widths on edge
   operands: carry and overflow boundaries, zero results and parity
   boundaries, shift and rotate counts 0, 1, width-1, width and counts
   past the count mask (already masked, as the semantics passes them),
   INC/DEC with CF set and clear, NEG of 0. The words were recorded from
   the record-of-bools flag representation, before flags were packed
   into an int; any change to a rule or to the packing shows up here.

   A row is (rule, width, prior flag word, a, b or count, r, expected
   word). The prior word matters only to the partial writers (INC/DEC
   keep CF; shifts and rotates by 0 keep everything; rotates keep
   PF/AF/ZF/SF); 0x8d5 is all six flags set. Rows marked SDM were checked
   by hand against the flag definitions of the instruction pages in the
   Intel SDM, Vol. 2 (AF after shifts, left undefined there, is 0 here). *)

type golden_rule =
  | Add of bool  (** carry in *)
  | Sub of bool  (** borrow in *)
  | Logic
  | Inc
  | Dec
  | Neg
  | Imul of bool  (** full product overflowed *)
  | Shl
  | Shr
  | Sar
  | Rol
  | Ror

let golden_rule_rows =
  [
    (Add false, Width.W8, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Add false, Width.W8, 0x0L, 0xffL, 0x1L, 0x0L, 0x55L); (* SDM *)
    (Add false, Width.W8, 0x0L, 0x7fL, 0x1L, 0x80L, 0x890L); (* SDM *)
    (Add false, Width.W8, 0x0L, 0x80L, 0x80L, 0x0L, 0x845L); (* SDM *)
    (Add false, Width.W8, 0x0L, 0xffL, 0xffL, 0xfeL, 0x91L);
    (Add false, Width.W8, 0x0L, 0xfL, 0x1L, 0x10L, 0x10L);
    (Add false, Width.W8, 0x0L, 0x1L, 0x2L, 0x3L, 0x4L);
    (Add true, Width.W8, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Add true, Width.W8, 0x0L, 0xffL, 0x1L, 0x1L, 0x11L); (* SDM *)
    (Add true, Width.W8, 0x0L, 0x7fL, 0x1L, 0x81L, 0x894L);
    (Add true, Width.W8, 0x0L, 0x80L, 0x80L, 0x1L, 0x801L);
    (Add true, Width.W8, 0x0L, 0xffL, 0xffL, 0xffL, 0x95L);
    (Add true, Width.W8, 0x0L, 0xfL, 0x1L, 0x11L, 0x14L);
    (Add true, Width.W8, 0x0L, 0x1L, 0x2L, 0x4L, 0x0L);
    (Sub false, Width.W8, 0x0L, 0x0L, 0x1L, 0xffL, 0x95L); (* SDM *)
    (Sub false, Width.W8, 0x0L, 0x80L, 0x1L, 0x7fL, 0x810L); (* SDM *)
    (Sub false, Width.W8, 0x0L, 0x5L, 0x5L, 0x0L, 0x44L); (* SDM *)
    (Sub false, Width.W8, 0x0L, 0x0L, 0x80L, 0x80L, 0x881L);
    (Sub false, Width.W8, 0x0L, 0x10L, 0x1L, 0xfL, 0x14L);
    (Sub false, Width.W8, 0x0L, 0x0L, 0xffL, 0x1L, 0x11L);
    (Sub false, Width.W8, 0x0L, 0x3L, 0x0L, 0x3L, 0x4L);
    (Sub true, Width.W8, 0x0L, 0x0L, 0x1L, 0xfeL, 0x91L);
    (Sub true, Width.W8, 0x0L, 0x80L, 0x1L, 0x7eL, 0x814L);
    (Sub true, Width.W8, 0x0L, 0x5L, 0x5L, 0xffL, 0x95L);
    (Sub true, Width.W8, 0x0L, 0x0L, 0x80L, 0x7fL, 0x11L);
    (Sub true, Width.W8, 0x0L, 0x10L, 0x1L, 0xeL, 0x10L);
    (Sub true, Width.W8, 0x0L, 0x0L, 0xffL, 0x0L, 0x55L);
    (Sub true, Width.W8, 0x0L, 0x3L, 0x0L, 0x2L, 0x0L);
    (Logic, Width.W8, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Logic, Width.W8, 0x0L, 0x0L, 0x0L, 0x80L, 0x80L);
    (Logic, Width.W8, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Logic, Width.W8, 0x0L, 0x0L, 0x0L, 0x3L, 0x4L);
    (Logic, Width.W8, 0x0L, 0x0L, 0x0L, 0xffL, 0x84L);
    (Logic, Width.W8, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Inc, Width.W8, 0x0L, 0xffL, 0x0L, 0x0L, 0x54L);
    (Inc, Width.W8, 0x0L, 0x7fL, 0x0L, 0x80L, 0x890L);
    (Inc, Width.W8, 0x0L, 0xfL, 0x0L, 0x10L, 0x10L);
    (Inc, Width.W8, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Dec, Width.W8, 0x0L, 0x0L, 0x0L, 0xffL, 0x94L);
    (Dec, Width.W8, 0x0L, 0x80L, 0x0L, 0x7fL, 0x810L); (* SDM *)
    (Dec, Width.W8, 0x0L, 0x1L, 0x0L, 0x0L, 0x44L);
    (Dec, Width.W8, 0x0L, 0x10L, 0x0L, 0xfL, 0x14L);
    (Inc, Width.W8, 0x8d5L, 0xffL, 0x0L, 0x0L, 0x55L); (* SDM *)
    (Inc, Width.W8, 0x8d5L, 0x7fL, 0x0L, 0x80L, 0x891L);
    (Inc, Width.W8, 0x8d5L, 0xfL, 0x0L, 0x10L, 0x11L);
    (Inc, Width.W8, 0x8d5L, 0x0L, 0x0L, 0x1L, 0x1L);
    (Dec, Width.W8, 0x8d5L, 0x0L, 0x0L, 0xffL, 0x95L);
    (Dec, Width.W8, 0x8d5L, 0x80L, 0x0L, 0x7fL, 0x811L);
    (Dec, Width.W8, 0x8d5L, 0x1L, 0x0L, 0x0L, 0x45L);
    (Dec, Width.W8, 0x8d5L, 0x10L, 0x0L, 0xfL, 0x15L);
    (Neg, Width.W8, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L); (* SDM *)
    (Neg, Width.W8, 0x0L, 0x1L, 0x0L, 0xffL, 0x95L);
    (Neg, Width.W8, 0x0L, 0x80L, 0x0L, 0x80L, 0x881L); (* SDM *)
    (Neg, Width.W8, 0x0L, 0xffL, 0x0L, 0x1L, 0x11L);
    (Imul false, Width.W8, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Imul false, Width.W8, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Imul true, Width.W8, 0x0L, 0x0L, 0x0L, 0x80L, 0x881L); (* SDM *)
    (Imul true, Width.W8, 0x0L, 0x0L, 0x0L, 0x0L, 0x845L);
    (Imul false, Width.W8, 0x0L, 0x0L, 0x0L, 0x3L, 0x4L);
    (Shl, Width.W8, 0x8d5L, 0x81L, 0x0L, 0x81L, 0x8d5L); (* SDM *)
    (Shr, Width.W8, 0x8d5L, 0x81L, 0x0L, 0x81L, 0x8d5L);
    (Sar, Width.W8, 0x8d5L, 0x81L, 0x0L, 0x81L, 0x8d5L);
    (Rol, Width.W8, 0x8d5L, 0x81L, 0x0L, 0x81L, 0x8d5L);
    (Ror, Width.W8, 0x8d5L, 0x81L, 0x0L, 0x81L, 0x8d5L);
    (Shl, Width.W8, 0x8d5L, 0x81L, 0x1L, 0x2L, 0x801L); (* SDM *)
    (Shr, Width.W8, 0x8d5L, 0x81L, 0x1L, 0x40L, 0x801L); (* SDM *)
    (Sar, Width.W8, 0x8d5L, 0x81L, 0x1L, 0xc0L, 0x85L); (* SDM *)
    (Rol, Width.W8, 0x8d5L, 0x81L, 0x1L, 0x3L, 0x8d5L); (* SDM *)
    (Ror, Width.W8, 0x8d5L, 0x81L, 0x1L, 0xc0L, 0xd5L); (* SDM *)
    (Shl, Width.W8, 0x8d5L, 0x81L, 0x7L, 0x80L, 0x880L);
    (Shr, Width.W8, 0x8d5L, 0x81L, 0x7L, 0x1L, 0x800L);
    (Sar, Width.W8, 0x8d5L, 0x81L, 0x7L, 0xffL, 0x84L);
    (Rol, Width.W8, 0x8d5L, 0x81L, 0x7L, 0xc0L, 0x8d4L);
    (Ror, Width.W8, 0x8d5L, 0x81L, 0x7L, 0x3L, 0xd4L);
    (Shl, Width.W8, 0x8d5L, 0x81L, 0x8L, 0x0L, 0x845L);
    (Shr, Width.W8, 0x8d5L, 0x81L, 0x8L, 0x0L, 0x845L);
    (Sar, Width.W8, 0x8d5L, 0x81L, 0x8L, 0xffL, 0x85L);
    (Rol, Width.W8, 0x8d5L, 0x81L, 0x8L, 0x81L, 0xd5L);
    (Ror, Width.W8, 0x8d5L, 0x81L, 0x8L, 0x81L, 0x8d5L);
    (Shl, Width.W8, 0x8d5L, 0x81L, 0x9L, 0x0L, 0x44L);
    (Shr, Width.W8, 0x8d5L, 0x81L, 0x9L, 0x0L, 0x844L);
    (Sar, Width.W8, 0x8d5L, 0x81L, 0x9L, 0xffL, 0x85L);
    (Rol, Width.W8, 0x8d5L, 0x81L, 0x9L, 0x3L, 0x8d5L);
    (Ror, Width.W8, 0x8d5L, 0x81L, 0x9L, 0xc0L, 0xd5L);
    (Shl, Width.W8, 0x8d5L, 0x81L, 0x1fL, 0x0L, 0x44L);
    (Shr, Width.W8, 0x8d5L, 0x81L, 0x1fL, 0x0L, 0x844L);
    (Sar, Width.W8, 0x8d5L, 0x81L, 0x1fL, 0xffL, 0x85L);
    (Rol, Width.W8, 0x8d5L, 0x81L, 0x1fL, 0xc0L, 0x8d4L);
    (Ror, Width.W8, 0x8d5L, 0x81L, 0x1fL, 0x3L, 0xd4L);
    (Shl, Width.W8, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Shr, Width.W8, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Sar, Width.W8, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Rol, Width.W8, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Ror, Width.W8, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Shl, Width.W8, 0x0L, 0x1L, 0x1L, 0x2L, 0x0L);
    (Shr, Width.W8, 0x0L, 0x1L, 0x1L, 0x0L, 0x45L);
    (Sar, Width.W8, 0x0L, 0x1L, 0x1L, 0x0L, 0x45L);
    (Rol, Width.W8, 0x0L, 0x1L, 0x1L, 0x2L, 0x0L);
    (Ror, Width.W8, 0x0L, 0x1L, 0x1L, 0x80L, 0x801L);
    (Shl, Width.W8, 0x0L, 0x1L, 0x7L, 0x80L, 0x880L);
    (Shr, Width.W8, 0x0L, 0x1L, 0x7L, 0x0L, 0x44L);
    (Sar, Width.W8, 0x0L, 0x1L, 0x7L, 0x0L, 0x44L);
    (Rol, Width.W8, 0x0L, 0x1L, 0x7L, 0x80L, 0x800L);
    (Ror, Width.W8, 0x0L, 0x1L, 0x7L, 0x2L, 0x0L);
    (Shl, Width.W8, 0x0L, 0x1L, 0x8L, 0x0L, 0x845L);
    (Shr, Width.W8, 0x0L, 0x1L, 0x8L, 0x0L, 0x44L);
    (Sar, Width.W8, 0x0L, 0x1L, 0x8L, 0x0L, 0x44L);
    (Rol, Width.W8, 0x0L, 0x1L, 0x8L, 0x1L, 0x801L);
    (Ror, Width.W8, 0x0L, 0x1L, 0x8L, 0x1L, 0x0L);
    (Shl, Width.W8, 0x0L, 0x1L, 0x9L, 0x0L, 0x44L);
    (Shr, Width.W8, 0x0L, 0x1L, 0x9L, 0x0L, 0x44L);
    (Sar, Width.W8, 0x0L, 0x1L, 0x9L, 0x0L, 0x44L);
    (Rol, Width.W8, 0x0L, 0x1L, 0x9L, 0x2L, 0x0L);
    (Ror, Width.W8, 0x0L, 0x1L, 0x9L, 0x80L, 0x801L);
    (Shl, Width.W8, 0x0L, 0x1L, 0x1fL, 0x0L, 0x44L);
    (Shr, Width.W8, 0x0L, 0x1L, 0x1fL, 0x0L, 0x44L);
    (Sar, Width.W8, 0x0L, 0x1L, 0x1fL, 0x0L, 0x44L);
    (Rol, Width.W8, 0x0L, 0x1L, 0x1fL, 0x80L, 0x800L);
    (Ror, Width.W8, 0x0L, 0x1L, 0x1fL, 0x2L, 0x0L);
    (Add false, Width.W16, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Add false, Width.W16, 0x0L, 0xffffL, 0x1L, 0x0L, 0x55L);
    (Add false, Width.W16, 0x0L, 0x7fffL, 0x1L, 0x8000L, 0x894L);
    (Add false, Width.W16, 0x0L, 0x8000L, 0x8000L, 0x0L, 0x845L);
    (Add false, Width.W16, 0x0L, 0xffffL, 0xffffL, 0xfffeL, 0x91L);
    (Add false, Width.W16, 0x0L, 0xfL, 0x1L, 0x10L, 0x10L);
    (Add false, Width.W16, 0x0L, 0x1L, 0x2L, 0x3L, 0x4L);
    (Add true, Width.W16, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Add true, Width.W16, 0x0L, 0xffffL, 0x1L, 0x1L, 0x11L);
    (Add true, Width.W16, 0x0L, 0x7fffL, 0x1L, 0x8001L, 0x890L);
    (Add true, Width.W16, 0x0L, 0x8000L, 0x8000L, 0x1L, 0x801L);
    (Add true, Width.W16, 0x0L, 0xffffL, 0xffffL, 0xffffL, 0x95L);
    (Add true, Width.W16, 0x0L, 0xfL, 0x1L, 0x11L, 0x14L);
    (Add true, Width.W16, 0x0L, 0x1L, 0x2L, 0x4L, 0x0L);
    (Sub false, Width.W16, 0x0L, 0x0L, 0x1L, 0xffffL, 0x95L);
    (Sub false, Width.W16, 0x0L, 0x8000L, 0x1L, 0x7fffL, 0x814L);
    (Sub false, Width.W16, 0x0L, 0x5L, 0x5L, 0x0L, 0x44L);
    (Sub false, Width.W16, 0x0L, 0x0L, 0x8000L, 0x8000L, 0x885L);
    (Sub false, Width.W16, 0x0L, 0x10L, 0x1L, 0xfL, 0x14L);
    (Sub false, Width.W16, 0x0L, 0x0L, 0xffffL, 0x1L, 0x11L);
    (Sub false, Width.W16, 0x0L, 0x3L, 0x0L, 0x3L, 0x4L);
    (Sub true, Width.W16, 0x0L, 0x0L, 0x1L, 0xfffeL, 0x91L);
    (Sub true, Width.W16, 0x0L, 0x8000L, 0x1L, 0x7ffeL, 0x810L);
    (Sub true, Width.W16, 0x0L, 0x5L, 0x5L, 0xffffL, 0x95L);
    (Sub true, Width.W16, 0x0L, 0x0L, 0x8000L, 0x7fffL, 0x15L);
    (Sub true, Width.W16, 0x0L, 0x10L, 0x1L, 0xeL, 0x10L);
    (Sub true, Width.W16, 0x0L, 0x0L, 0xffffL, 0x0L, 0x55L);
    (Sub true, Width.W16, 0x0L, 0x3L, 0x0L, 0x2L, 0x0L);
    (Logic, Width.W16, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Logic, Width.W16, 0x0L, 0x0L, 0x0L, 0x8000L, 0x84L);
    (Logic, Width.W16, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Logic, Width.W16, 0x0L, 0x0L, 0x0L, 0x3L, 0x4L);
    (Logic, Width.W16, 0x0L, 0x0L, 0x0L, 0xffffL, 0x84L);
    (Logic, Width.W16, 0x0L, 0x0L, 0x0L, 0x100L, 0x4L);
    (Inc, Width.W16, 0x0L, 0xffffL, 0x0L, 0x0L, 0x54L);
    (Inc, Width.W16, 0x0L, 0x7fffL, 0x0L, 0x8000L, 0x894L);
    (Inc, Width.W16, 0x0L, 0xfL, 0x0L, 0x10L, 0x10L);
    (Inc, Width.W16, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Dec, Width.W16, 0x0L, 0x0L, 0x0L, 0xffffL, 0x94L);
    (Dec, Width.W16, 0x0L, 0x8000L, 0x0L, 0x7fffL, 0x814L);
    (Dec, Width.W16, 0x0L, 0x1L, 0x0L, 0x0L, 0x44L);
    (Dec, Width.W16, 0x0L, 0x10L, 0x0L, 0xfL, 0x14L);
    (Inc, Width.W16, 0x8d5L, 0xffffL, 0x0L, 0x0L, 0x55L);
    (Inc, Width.W16, 0x8d5L, 0x7fffL, 0x0L, 0x8000L, 0x895L);
    (Inc, Width.W16, 0x8d5L, 0xfL, 0x0L, 0x10L, 0x11L);
    (Inc, Width.W16, 0x8d5L, 0x0L, 0x0L, 0x1L, 0x1L);
    (Dec, Width.W16, 0x8d5L, 0x0L, 0x0L, 0xffffL, 0x95L);
    (Dec, Width.W16, 0x8d5L, 0x8000L, 0x0L, 0x7fffL, 0x815L);
    (Dec, Width.W16, 0x8d5L, 0x1L, 0x0L, 0x0L, 0x45L);
    (Dec, Width.W16, 0x8d5L, 0x10L, 0x0L, 0xfL, 0x15L);
    (Neg, Width.W16, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Neg, Width.W16, 0x0L, 0x1L, 0x0L, 0xffffL, 0x95L);
    (Neg, Width.W16, 0x0L, 0x8000L, 0x0L, 0x8000L, 0x885L);
    (Neg, Width.W16, 0x0L, 0xffffL, 0x0L, 0x1L, 0x11L);
    (Imul false, Width.W16, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Imul false, Width.W16, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Imul true, Width.W16, 0x0L, 0x0L, 0x0L, 0x8000L, 0x885L);
    (Imul true, Width.W16, 0x0L, 0x0L, 0x0L, 0x0L, 0x845L);
    (Imul false, Width.W16, 0x0L, 0x0L, 0x0L, 0x3L, 0x4L);
    (Shl, Width.W16, 0x8d5L, 0x8001L, 0x0L, 0x8001L, 0x8d5L);
    (Shr, Width.W16, 0x8d5L, 0x8001L, 0x0L, 0x8001L, 0x8d5L);
    (Sar, Width.W16, 0x8d5L, 0x8001L, 0x0L, 0x8001L, 0x8d5L);
    (Rol, Width.W16, 0x8d5L, 0x8001L, 0x0L, 0x8001L, 0x8d5L);
    (Ror, Width.W16, 0x8d5L, 0x8001L, 0x0L, 0x8001L, 0x8d5L);
    (Shl, Width.W16, 0x8d5L, 0x8001L, 0x1L, 0x2L, 0x801L);
    (Shr, Width.W16, 0x8d5L, 0x8001L, 0x1L, 0x4000L, 0x805L);
    (Sar, Width.W16, 0x8d5L, 0x8001L, 0x1L, 0xc000L, 0x85L);
    (Rol, Width.W16, 0x8d5L, 0x8001L, 0x1L, 0x3L, 0x8d5L);
    (Ror, Width.W16, 0x8d5L, 0x8001L, 0x1L, 0xc000L, 0xd5L);
    (Shl, Width.W16, 0x8d5L, 0x8001L, 0xfL, 0x8000L, 0x884L);
    (Shr, Width.W16, 0x8d5L, 0x8001L, 0xfL, 0x1L, 0x800L);
    (Sar, Width.W16, 0x8d5L, 0x8001L, 0xfL, 0xffffL, 0x84L);
    (Rol, Width.W16, 0x8d5L, 0x8001L, 0xfL, 0xc000L, 0x8d4L);
    (Ror, Width.W16, 0x8d5L, 0x8001L, 0xfL, 0x3L, 0xd4L);
    (Shl, Width.W16, 0x8d5L, 0x8001L, 0x10L, 0x0L, 0x845L);
    (Shr, Width.W16, 0x8d5L, 0x8001L, 0x10L, 0x0L, 0x845L);
    (Sar, Width.W16, 0x8d5L, 0x8001L, 0x10L, 0xffffL, 0x85L);
    (Rol, Width.W16, 0x8d5L, 0x8001L, 0x10L, 0x8001L, 0xd5L);
    (Ror, Width.W16, 0x8d5L, 0x8001L, 0x10L, 0x8001L, 0x8d5L);
    (Shl, Width.W16, 0x8d5L, 0x8001L, 0x11L, 0x0L, 0x44L);
    (Shr, Width.W16, 0x8d5L, 0x8001L, 0x11L, 0x0L, 0x844L);
    (Sar, Width.W16, 0x8d5L, 0x8001L, 0x11L, 0xffffL, 0x85L);
    (Rol, Width.W16, 0x8d5L, 0x8001L, 0x11L, 0x3L, 0x8d5L);
    (Ror, Width.W16, 0x8d5L, 0x8001L, 0x11L, 0xc000L, 0xd5L);
    (Shl, Width.W16, 0x8d5L, 0x8001L, 0x1fL, 0x0L, 0x44L);
    (Shr, Width.W16, 0x8d5L, 0x8001L, 0x1fL, 0x0L, 0x844L);
    (Sar, Width.W16, 0x8d5L, 0x8001L, 0x1fL, 0xffffL, 0x85L);
    (Rol, Width.W16, 0x8d5L, 0x8001L, 0x1fL, 0xc000L, 0x8d4L);
    (Ror, Width.W16, 0x8d5L, 0x8001L, 0x1fL, 0x3L, 0xd4L);
    (Shl, Width.W16, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Shr, Width.W16, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Sar, Width.W16, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Rol, Width.W16, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Ror, Width.W16, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Shl, Width.W16, 0x0L, 0x1L, 0x1L, 0x2L, 0x0L);
    (Shr, Width.W16, 0x0L, 0x1L, 0x1L, 0x0L, 0x45L);
    (Sar, Width.W16, 0x0L, 0x1L, 0x1L, 0x0L, 0x45L);
    (Rol, Width.W16, 0x0L, 0x1L, 0x1L, 0x2L, 0x0L);
    (Ror, Width.W16, 0x0L, 0x1L, 0x1L, 0x8000L, 0x801L);
    (Shl, Width.W16, 0x0L, 0x1L, 0xfL, 0x8000L, 0x884L);
    (Shr, Width.W16, 0x0L, 0x1L, 0xfL, 0x0L, 0x44L);
    (Sar, Width.W16, 0x0L, 0x1L, 0xfL, 0x0L, 0x44L);
    (Rol, Width.W16, 0x0L, 0x1L, 0xfL, 0x8000L, 0x800L);
    (Ror, Width.W16, 0x0L, 0x1L, 0xfL, 0x2L, 0x0L);
    (Shl, Width.W16, 0x0L, 0x1L, 0x10L, 0x0L, 0x845L);
    (Shr, Width.W16, 0x0L, 0x1L, 0x10L, 0x0L, 0x44L);
    (Sar, Width.W16, 0x0L, 0x1L, 0x10L, 0x0L, 0x44L);
    (Rol, Width.W16, 0x0L, 0x1L, 0x10L, 0x1L, 0x801L);
    (Ror, Width.W16, 0x0L, 0x1L, 0x10L, 0x1L, 0x0L);
    (Shl, Width.W16, 0x0L, 0x1L, 0x11L, 0x0L, 0x44L);
    (Shr, Width.W16, 0x0L, 0x1L, 0x11L, 0x0L, 0x44L);
    (Sar, Width.W16, 0x0L, 0x1L, 0x11L, 0x0L, 0x44L);
    (Rol, Width.W16, 0x0L, 0x1L, 0x11L, 0x2L, 0x0L);
    (Ror, Width.W16, 0x0L, 0x1L, 0x11L, 0x8000L, 0x801L);
    (Shl, Width.W16, 0x0L, 0x1L, 0x1fL, 0x0L, 0x44L);
    (Shr, Width.W16, 0x0L, 0x1L, 0x1fL, 0x0L, 0x44L);
    (Sar, Width.W16, 0x0L, 0x1L, 0x1fL, 0x0L, 0x44L);
    (Rol, Width.W16, 0x0L, 0x1L, 0x1fL, 0x8000L, 0x800L);
    (Ror, Width.W16, 0x0L, 0x1L, 0x1fL, 0x2L, 0x0L);
    (Add false, Width.W32, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Add false, Width.W32, 0x0L, 0xffffffffL, 0x1L, 0x0L, 0x55L);
    (Add false, Width.W32, 0x0L, 0x7fffffffL, 0x1L, 0x80000000L, 0x894L);
    (Add false, Width.W32, 0x0L, 0x80000000L, 0x80000000L, 0x0L, 0x845L);
    (Add false, Width.W32, 0x0L, 0xffffffffL, 0xffffffffL, 0xfffffffeL, 0x91L);
    (Add false, Width.W32, 0x0L, 0xfL, 0x1L, 0x10L, 0x10L);
    (Add false, Width.W32, 0x0L, 0x1L, 0x2L, 0x3L, 0x4L);
    (Add true, Width.W32, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Add true, Width.W32, 0x0L, 0xffffffffL, 0x1L, 0x1L, 0x11L);
    (Add true, Width.W32, 0x0L, 0x7fffffffL, 0x1L, 0x80000001L, 0x890L);
    (Add true, Width.W32, 0x0L, 0x80000000L, 0x80000000L, 0x1L, 0x801L);
    (Add true, Width.W32, 0x0L, 0xffffffffL, 0xffffffffL, 0xffffffffL, 0x95L);
    (Add true, Width.W32, 0x0L, 0xfL, 0x1L, 0x11L, 0x14L);
    (Add true, Width.W32, 0x0L, 0x1L, 0x2L, 0x4L, 0x0L);
    (Sub false, Width.W32, 0x0L, 0x0L, 0x1L, 0xffffffffL, 0x95L);
    (Sub false, Width.W32, 0x0L, 0x80000000L, 0x1L, 0x7fffffffL, 0x814L);
    (Sub false, Width.W32, 0x0L, 0x5L, 0x5L, 0x0L, 0x44L);
    (Sub false, Width.W32, 0x0L, 0x0L, 0x80000000L, 0x80000000L, 0x885L);
    (Sub false, Width.W32, 0x0L, 0x10L, 0x1L, 0xfL, 0x14L);
    (Sub false, Width.W32, 0x0L, 0x0L, 0xffffffffL, 0x1L, 0x11L);
    (Sub false, Width.W32, 0x0L, 0x3L, 0x0L, 0x3L, 0x4L);
    (Sub true, Width.W32, 0x0L, 0x0L, 0x1L, 0xfffffffeL, 0x91L);
    (Sub true, Width.W32, 0x0L, 0x80000000L, 0x1L, 0x7ffffffeL, 0x810L);
    (Sub true, Width.W32, 0x0L, 0x5L, 0x5L, 0xffffffffL, 0x95L);
    (Sub true, Width.W32, 0x0L, 0x0L, 0x80000000L, 0x7fffffffL, 0x15L);
    (Sub true, Width.W32, 0x0L, 0x10L, 0x1L, 0xeL, 0x10L);
    (Sub true, Width.W32, 0x0L, 0x0L, 0xffffffffL, 0x0L, 0x55L);
    (Sub true, Width.W32, 0x0L, 0x3L, 0x0L, 0x2L, 0x0L);
    (Logic, Width.W32, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Logic, Width.W32, 0x0L, 0x0L, 0x0L, 0x80000000L, 0x84L);
    (Logic, Width.W32, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Logic, Width.W32, 0x0L, 0x0L, 0x0L, 0x3L, 0x4L);
    (Logic, Width.W32, 0x0L, 0x0L, 0x0L, 0xffffffffL, 0x84L);
    (Logic, Width.W32, 0x0L, 0x0L, 0x0L, 0x100L, 0x4L);
    (Inc, Width.W32, 0x0L, 0xffffffffL, 0x0L, 0x0L, 0x54L);
    (Inc, Width.W32, 0x0L, 0x7fffffffL, 0x0L, 0x80000000L, 0x894L);
    (Inc, Width.W32, 0x0L, 0xfL, 0x0L, 0x10L, 0x10L);
    (Inc, Width.W32, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Dec, Width.W32, 0x0L, 0x0L, 0x0L, 0xffffffffL, 0x94L);
    (Dec, Width.W32, 0x0L, 0x80000000L, 0x0L, 0x7fffffffL, 0x814L);
    (Dec, Width.W32, 0x0L, 0x1L, 0x0L, 0x0L, 0x44L);
    (Dec, Width.W32, 0x0L, 0x10L, 0x0L, 0xfL, 0x14L);
    (Inc, Width.W32, 0x8d5L, 0xffffffffL, 0x0L, 0x0L, 0x55L);
    (Inc, Width.W32, 0x8d5L, 0x7fffffffL, 0x0L, 0x80000000L, 0x895L);
    (Inc, Width.W32, 0x8d5L, 0xfL, 0x0L, 0x10L, 0x11L);
    (Inc, Width.W32, 0x8d5L, 0x0L, 0x0L, 0x1L, 0x1L);
    (Dec, Width.W32, 0x8d5L, 0x0L, 0x0L, 0xffffffffL, 0x95L);
    (Dec, Width.W32, 0x8d5L, 0x80000000L, 0x0L, 0x7fffffffL, 0x815L);
    (Dec, Width.W32, 0x8d5L, 0x1L, 0x0L, 0x0L, 0x45L);
    (Dec, Width.W32, 0x8d5L, 0x10L, 0x0L, 0xfL, 0x15L);
    (Neg, Width.W32, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Neg, Width.W32, 0x0L, 0x1L, 0x0L, 0xffffffffL, 0x95L);
    (Neg, Width.W32, 0x0L, 0x80000000L, 0x0L, 0x80000000L, 0x885L);
    (Neg, Width.W32, 0x0L, 0xffffffffL, 0x0L, 0x1L, 0x11L);
    (Imul false, Width.W32, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Imul false, Width.W32, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Imul true, Width.W32, 0x0L, 0x0L, 0x0L, 0x80000000L, 0x885L);
    (Imul true, Width.W32, 0x0L, 0x0L, 0x0L, 0x0L, 0x845L);
    (Imul false, Width.W32, 0x0L, 0x0L, 0x0L, 0x3L, 0x4L);
    (Shl, Width.W32, 0x8d5L, 0x80000001L, 0x0L, 0x80000001L, 0x8d5L);
    (Shr, Width.W32, 0x8d5L, 0x80000001L, 0x0L, 0x80000001L, 0x8d5L);
    (Sar, Width.W32, 0x8d5L, 0x80000001L, 0x0L, 0x80000001L, 0x8d5L);
    (Rol, Width.W32, 0x8d5L, 0x80000001L, 0x0L, 0x80000001L, 0x8d5L);
    (Ror, Width.W32, 0x8d5L, 0x80000001L, 0x0L, 0x80000001L, 0x8d5L);
    (Shl, Width.W32, 0x8d5L, 0x80000001L, 0x1L, 0x2L, 0x801L);
    (Shr, Width.W32, 0x8d5L, 0x80000001L, 0x1L, 0x40000000L, 0x805L);
    (Sar, Width.W32, 0x8d5L, 0x80000001L, 0x1L, 0xc0000000L, 0x85L);
    (Rol, Width.W32, 0x8d5L, 0x80000001L, 0x1L, 0x3L, 0x8d5L);
    (Ror, Width.W32, 0x8d5L, 0x80000001L, 0x1L, 0xc0000000L, 0xd5L);
    (Shl, Width.W32, 0x8d5L, 0x80000001L, 0x1fL, 0x80000000L, 0x884L);
    (Shr, Width.W32, 0x8d5L, 0x80000001L, 0x1fL, 0x1L, 0x800L);
    (Sar, Width.W32, 0x8d5L, 0x80000001L, 0x1fL, 0xffffffffL, 0x84L);
    (Rol, Width.W32, 0x8d5L, 0x80000001L, 0x1fL, 0xc0000000L, 0x8d4L);
    (Ror, Width.W32, 0x8d5L, 0x80000001L, 0x1fL, 0x3L, 0xd4L);
    (Shl, Width.W32, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Shr, Width.W32, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Sar, Width.W32, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Rol, Width.W32, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Ror, Width.W32, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Shl, Width.W32, 0x0L, 0x1L, 0x1L, 0x2L, 0x0L);
    (Shr, Width.W32, 0x0L, 0x1L, 0x1L, 0x0L, 0x45L);
    (Sar, Width.W32, 0x0L, 0x1L, 0x1L, 0x0L, 0x45L);
    (Rol, Width.W32, 0x0L, 0x1L, 0x1L, 0x2L, 0x0L);
    (Ror, Width.W32, 0x0L, 0x1L, 0x1L, 0x80000000L, 0x801L);
    (Shl, Width.W32, 0x0L, 0x1L, 0x1fL, 0x80000000L, 0x884L);
    (Shr, Width.W32, 0x0L, 0x1L, 0x1fL, 0x0L, 0x44L);
    (Sar, Width.W32, 0x0L, 0x1L, 0x1fL, 0x0L, 0x44L);
    (Rol, Width.W32, 0x0L, 0x1L, 0x1fL, 0x80000000L, 0x800L);
    (Ror, Width.W32, 0x0L, 0x1L, 0x1fL, 0x2L, 0x0L);
    (Add false, Width.W64, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Add false, Width.W64, 0x0L, 0xffffffffffffffffL, 0x1L, 0x0L, 0x55L);
    (Add false, Width.W64, 0x0L, 0x7fffffffffffffffL, 0x1L, 0x8000000000000000L, 0x894L);
    (Add false, Width.W64, 0x0L, 0x8000000000000000L, 0x8000000000000000L, 0x0L, 0x845L);
    (Add false, Width.W64, 0x0L, 0xffffffffffffffffL, 0xffffffffffffffffL, 0xfffffffffffffffeL, 0x91L);
    (Add false, Width.W64, 0x0L, 0xfL, 0x1L, 0x10L, 0x10L);
    (Add false, Width.W64, 0x0L, 0x1L, 0x2L, 0x3L, 0x4L);
    (Add true, Width.W64, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Add true, Width.W64, 0x0L, 0xffffffffffffffffL, 0x1L, 0x1L, 0x11L);
    (Add true, Width.W64, 0x0L, 0x7fffffffffffffffL, 0x1L, 0x8000000000000001L, 0x890L);
    (Add true, Width.W64, 0x0L, 0x8000000000000000L, 0x8000000000000000L, 0x1L, 0x801L);
    (Add true, Width.W64, 0x0L, 0xffffffffffffffffL, 0xffffffffffffffffL, 0xffffffffffffffffL, 0x95L);
    (Add true, Width.W64, 0x0L, 0xfL, 0x1L, 0x11L, 0x14L);
    (Add true, Width.W64, 0x0L, 0x1L, 0x2L, 0x4L, 0x0L);
    (Sub false, Width.W64, 0x0L, 0x0L, 0x1L, 0xffffffffffffffffL, 0x95L);
    (Sub false, Width.W64, 0x0L, 0x8000000000000000L, 0x1L, 0x7fffffffffffffffL, 0x814L);
    (Sub false, Width.W64, 0x0L, 0x5L, 0x5L, 0x0L, 0x44L);
    (Sub false, Width.W64, 0x0L, 0x0L, 0x8000000000000000L, 0x8000000000000000L, 0x885L);
    (Sub false, Width.W64, 0x0L, 0x10L, 0x1L, 0xfL, 0x14L);
    (Sub false, Width.W64, 0x0L, 0x0L, 0xffffffffffffffffL, 0x1L, 0x11L);
    (Sub false, Width.W64, 0x0L, 0x3L, 0x0L, 0x3L, 0x4L);
    (Sub true, Width.W64, 0x0L, 0x0L, 0x1L, 0xfffffffffffffffeL, 0x91L);
    (Sub true, Width.W64, 0x0L, 0x8000000000000000L, 0x1L, 0x7ffffffffffffffeL, 0x810L);
    (Sub true, Width.W64, 0x0L, 0x5L, 0x5L, 0xffffffffffffffffL, 0x95L);
    (Sub true, Width.W64, 0x0L, 0x0L, 0x8000000000000000L, 0x7fffffffffffffffL, 0x15L);
    (Sub true, Width.W64, 0x0L, 0x10L, 0x1L, 0xeL, 0x10L);
    (Sub true, Width.W64, 0x0L, 0x0L, 0xffffffffffffffffL, 0x0L, 0x55L);
    (Sub true, Width.W64, 0x0L, 0x3L, 0x0L, 0x2L, 0x0L);
    (Logic, Width.W64, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Logic, Width.W64, 0x0L, 0x0L, 0x0L, 0x8000000000000000L, 0x84L);
    (Logic, Width.W64, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Logic, Width.W64, 0x0L, 0x0L, 0x0L, 0x3L, 0x4L);
    (Logic, Width.W64, 0x0L, 0x0L, 0x0L, 0xffffffffffffffffL, 0x84L);
    (Logic, Width.W64, 0x0L, 0x0L, 0x0L, 0x100L, 0x4L);
    (Inc, Width.W64, 0x0L, 0xffffffffffffffffL, 0x0L, 0x0L, 0x54L);
    (Inc, Width.W64, 0x0L, 0x7fffffffffffffffL, 0x0L, 0x8000000000000000L, 0x894L);
    (Inc, Width.W64, 0x0L, 0xfL, 0x0L, 0x10L, 0x10L);
    (Inc, Width.W64, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Dec, Width.W64, 0x0L, 0x0L, 0x0L, 0xffffffffffffffffL, 0x94L);
    (Dec, Width.W64, 0x0L, 0x8000000000000000L, 0x0L, 0x7fffffffffffffffL, 0x814L);
    (Dec, Width.W64, 0x0L, 0x1L, 0x0L, 0x0L, 0x44L);
    (Dec, Width.W64, 0x0L, 0x10L, 0x0L, 0xfL, 0x14L);
    (Inc, Width.W64, 0x8d5L, 0xffffffffffffffffL, 0x0L, 0x0L, 0x55L);
    (Inc, Width.W64, 0x8d5L, 0x7fffffffffffffffL, 0x0L, 0x8000000000000000L, 0x895L);
    (Inc, Width.W64, 0x8d5L, 0xfL, 0x0L, 0x10L, 0x11L);
    (Inc, Width.W64, 0x8d5L, 0x0L, 0x0L, 0x1L, 0x1L);
    (Dec, Width.W64, 0x8d5L, 0x0L, 0x0L, 0xffffffffffffffffL, 0x95L);
    (Dec, Width.W64, 0x8d5L, 0x8000000000000000L, 0x0L, 0x7fffffffffffffffL, 0x815L);
    (Dec, Width.W64, 0x8d5L, 0x1L, 0x0L, 0x0L, 0x45L);
    (Dec, Width.W64, 0x8d5L, 0x10L, 0x0L, 0xfL, 0x15L);
    (Neg, Width.W64, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Neg, Width.W64, 0x0L, 0x1L, 0x0L, 0xffffffffffffffffL, 0x95L);
    (Neg, Width.W64, 0x0L, 0x8000000000000000L, 0x0L, 0x8000000000000000L, 0x885L);
    (Neg, Width.W64, 0x0L, 0xffffffffffffffffL, 0x0L, 0x1L, 0x11L);
    (Imul false, Width.W64, 0x0L, 0x0L, 0x0L, 0x0L, 0x44L);
    (Imul false, Width.W64, 0x0L, 0x0L, 0x0L, 0x1L, 0x0L);
    (Imul true, Width.W64, 0x0L, 0x0L, 0x0L, 0x8000000000000000L, 0x885L);
    (Imul true, Width.W64, 0x0L, 0x0L, 0x0L, 0x0L, 0x845L);
    (Imul false, Width.W64, 0x0L, 0x0L, 0x0L, 0x3L, 0x4L);
    (Shl, Width.W64, 0x8d5L, 0x8000000000000001L, 0x0L, 0x8000000000000001L, 0x8d5L);
    (Shr, Width.W64, 0x8d5L, 0x8000000000000001L, 0x0L, 0x8000000000000001L, 0x8d5L);
    (Sar, Width.W64, 0x8d5L, 0x8000000000000001L, 0x0L, 0x8000000000000001L, 0x8d5L);
    (Rol, Width.W64, 0x8d5L, 0x8000000000000001L, 0x0L, 0x8000000000000001L, 0x8d5L);
    (Ror, Width.W64, 0x8d5L, 0x8000000000000001L, 0x0L, 0x8000000000000001L, 0x8d5L);
    (Shl, Width.W64, 0x8d5L, 0x8000000000000001L, 0x1L, 0x2L, 0x801L);
    (Shr, Width.W64, 0x8d5L, 0x8000000000000001L, 0x1L, 0x4000000000000000L, 0x805L);
    (Sar, Width.W64, 0x8d5L, 0x8000000000000001L, 0x1L, 0xc000000000000000L, 0x85L);
    (Rol, Width.W64, 0x8d5L, 0x8000000000000001L, 0x1L, 0x3L, 0x8d5L);
    (Ror, Width.W64, 0x8d5L, 0x8000000000000001L, 0x1L, 0xc000000000000000L, 0xd5L);
    (Shl, Width.W64, 0x8d5L, 0x8000000000000001L, 0x3fL, 0x8000000000000000L, 0x884L);
    (Shr, Width.W64, 0x8d5L, 0x8000000000000001L, 0x3fL, 0x1L, 0x800L);
    (Sar, Width.W64, 0x8d5L, 0x8000000000000001L, 0x3fL, 0xffffffffffffffffL, 0x84L);
    (Rol, Width.W64, 0x8d5L, 0x8000000000000001L, 0x3fL, 0xc000000000000000L, 0x8d4L);
    (Ror, Width.W64, 0x8d5L, 0x8000000000000001L, 0x3fL, 0x3L, 0xd4L);
    (Shl, Width.W64, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Shr, Width.W64, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Sar, Width.W64, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Rol, Width.W64, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Ror, Width.W64, 0x0L, 0x1L, 0x0L, 0x1L, 0x0L);
    (Shl, Width.W64, 0x0L, 0x1L, 0x1L, 0x2L, 0x0L);
    (Shr, Width.W64, 0x0L, 0x1L, 0x1L, 0x0L, 0x45L);
    (Sar, Width.W64, 0x0L, 0x1L, 0x1L, 0x0L, 0x45L);
    (Rol, Width.W64, 0x0L, 0x1L, 0x1L, 0x2L, 0x0L);
    (Ror, Width.W64, 0x0L, 0x1L, 0x1L, 0x8000000000000000L, 0x801L);
    (Shl, Width.W64, 0x0L, 0x1L, 0x3fL, 0x8000000000000000L, 0x884L);
    (Shr, Width.W64, 0x0L, 0x1L, 0x3fL, 0x0L, 0x44L);
    (Sar, Width.W64, 0x0L, 0x1L, 0x3fL, 0x0L, 0x44L);
    (Rol, Width.W64, 0x0L, 0x1L, 0x3fL, 0x8000000000000000L, 0x800L);
    (Ror, Width.W64, 0x0L, 0x1L, 0x3fL, 0x2L, 0x0L);
  ]

(* Bit k of each mask is [eval_cond] under flag combination k: bit 0 of
   k is CF, then PF, AF, ZF, SF, OF. *)
let golden_cond_rows =
  [
    (Cond.O, 0xffffffff00000000L);
    (Cond.NO, 0x00000000ffffffffL);
    (Cond.B, 0xaaaaaaaaaaaaaaaaL);
    (Cond.AE, 0x5555555555555555L);
    (Cond.Z, 0xff00ff00ff00ff00L);
    (Cond.NZ, 0x00ff00ff00ff00ffL);
    (Cond.BE, 0xffaaffaaffaaffaaL); (* SDM *)
    (Cond.A, 0x0055005500550055L);
    (Cond.S, 0xffff0000ffff0000L);
    (Cond.NS, 0x0000ffff0000ffffL);
    (Cond.P, 0xccccccccccccccccL);
    (Cond.NP, 0x3333333333333333L);
    (Cond.L, 0x0000ffffffff0000L); (* SDM *)
    (Cond.GE, 0xffff00000000ffffL);
    (Cond.LE, 0xff00ffffffffff00L); (* SDM *)
    (Cond.G, 0x00ff0000000000ffL);
  ]

let golden_word (rule, w, prior, a, b, r) =
  let prior = Flags.of_word prior and count = Int64.to_int b in
  Flags.to_word
    (match rule with
    | Add carry_in -> Flags.after_add w ~a ~b ~carry_in ~r
    | Sub borrow_in -> Flags.after_sub w ~a ~b ~borrow_in ~r
    | Logic -> Flags.after_logic w ~r
    | Inc -> Flags.after_inc w prior ~a ~r
    | Dec -> Flags.after_dec w prior ~a ~r
    | Neg -> Flags.after_neg w ~a ~r
    | Imul full_overflow -> Flags.after_imul w ~full_overflow ~r
    | Shl -> Flags.after_shift w prior ~op:`Shl ~a ~count ~r
    | Shr -> Flags.after_shift w prior ~op:`Shr ~a ~count ~r
    | Sar -> Flags.after_shift w prior ~op:`Sar ~a ~count ~r
    | Rol -> Flags.after_rotate w prior ~op:`Rol ~count ~r
    | Ror -> Flags.after_rotate w prior ~op:`Ror ~count ~r)

let golden_combo k =
  let bit i pos = if (k lsr i) land 1 = 1 then Int64.shift_left 1L pos else 0L in
  Flags.of_word
    (List.fold_left Int64.logor 0L
       [ bit 0 0; bit 1 2; bit 2 4; bit 3 6; bit 4 7; bit 5 11 ])

let golden_tests =
  [
    tc "update rules match the golden words" `Quick (fun () ->
        List.iteri
          (fun i (rule, w, prior, a, b, r, expected) ->
            check int64
              (Printf.sprintf "row %d (%s)" i (Width.to_string w))
              expected
              (golden_word (rule, w, prior, a, b, r)))
          golden_rule_rows);
    tc "eval_cond matches the golden table" `Quick (fun () ->
        List.iter
          (fun (c, mask) ->
            for k = 0 to 63 do
              check bool
                (Printf.sprintf "%s under combination %d" (Cond.suffix c) k)
                (Int64.logand (Int64.shift_right_logical mask k) 1L = 1L)
                (Flags.eval_cond (golden_combo k) c)
            done)
          golden_cond_rows);
  ]

let () =
  Alcotest.run "emu"
    [
      ("word", word_tests);
      ("flags", flags_tests);
      ("golden", golden_tests);
      ("vectors", vector_tests);
      ("memory", memory_tests);
      ("state", state_tests);
      ("semantics", semantics_tests);
    ]
