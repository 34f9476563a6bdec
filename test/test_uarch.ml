(* Unit tests for the microarchitectural simulator: cache, predictors,
   page table, configuration, attacks, and the speculative engine. *)

open Revizor_isa
open Revizor_emu
open Revizor_uarch

let check = Alcotest.check
let tc = Alcotest.test_case

(* Alcotest testable shorthands *)
let bool = Alcotest.bool
let int = Alcotest.int
let int64 = Alcotest.int64
let string = Alcotest.string
let _ = (bool, int, int64, string)
let char = Alcotest.char
let base = Layout.sandbox_base
let addr_of_line line = Int64.add base (Int64.of_int (line * Layout.cache_line))

(* --- Cache ------------------------------------------------------------ *)

let cache_tests =
  [
    tc "miss then hit" `Quick (fun () ->
        let c = Cache.create () in
        check bool "cold miss" true (Cache.touch c base = `Miss);
        check bool "warm hit" true (Cache.touch c base = `Hit);
        check bool "contains" true (Cache.contains c base));
    tc "same line same set" `Quick (fun () ->
        let c = Cache.create () in
        ignore (Cache.touch c base);
        check bool "same line offset" true
          (Cache.touch c (Int64.add base 63L) = `Hit);
        check bool "next line" true (Cache.touch c (Int64.add base 64L) = `Miss));
    tc "LRU evicts the oldest way" `Quick (fun () ->
        let c = Cache.create ~sets:1 ~ways:2 () in
        ignore (Cache.touch c (addr_of_line 0));
        ignore (Cache.touch c (addr_of_line 1));
        (* touch line 0 again: line 1 becomes LRU *)
        ignore (Cache.touch c (addr_of_line 0));
        ignore (Cache.touch c (addr_of_line 2));
        check bool "line0 kept" true (Cache.contains c (addr_of_line 0));
        check bool "line1 evicted" false (Cache.contains c (addr_of_line 1)));
    tc "flush" `Quick (fun () ->
        let c = Cache.create () in
        ignore (Cache.touch c base);
        Cache.flush_line c base;
        check bool "flushed" false (Cache.contains c base);
        ignore (Cache.touch c base);
        Cache.flush_all c;
        check bool "flushed all" false (Cache.contains c base));
    tc "prime and probe detect victim accesses" `Quick (fun () ->
        let c = Cache.create () in
        Cache.prime c;
        ignore (Cache.touch c (addr_of_line 5));
        check bool "touched set evicted attacker line" true (Cache.probe c 5);
        check bool "untouched set intact" false (Cache.probe c 6);
        (* probing re-primes *)
        check bool "re-primed" false (Cache.probe c 5));
    tc "copy is independent" `Quick (fun () ->
        let c = Cache.create () in
        ignore (Cache.touch c base);
        let c' = Cache.copy c in
        Cache.flush_all c';
        check bool "original intact" true (Cache.contains c base));
    (* Sets, PHT counters and BTB entries are indexed by masking, which
       is a modulo only for a power-of-two count: 48 sets reached 32 of
       their indices and 40 reached 16, and a size-0 predictor failed at
       its first prediction. *)
    tc "table sizes must be powers of two" `Quick (fun () ->
        let refused msg f =
          Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
        in
        List.iter
          (fun sets ->
            refused "Cache.create: sets must be a positive power of two" (fun () ->
                Cache.create ~sets ()))
          [ 48; 40; 3; 0; -64 ];
        refused "Cache.create: ways must be positive" (fun () -> Cache.create ~ways:0 ());
        List.iter
          (fun size ->
            refused "Pht.create: size must be a positive power of two" (fun () ->
                Predictors.Pht.create ~size ());
            refused "Btb.create: size must be a positive power of two" (fun () ->
                Predictors.Btb.create ~size ()))
          [ 0; 3; 500; -2 ];
        (* Accepted sizes reach every index: line l maps to set l mod n. *)
        List.iter
          (fun sets ->
            let c = Cache.create ~sets ~ways:3 () in
            for line = 0 to (3 * sets) - 1 do
              let a = Int64.to_int (addr_of_line line) in
              check int "set of line"
                ((Int64.to_int base / Layout.cache_line + line) mod sets)
                (Cache.set_of c a)
            done)
          [ 1; 2; 32; 64; 128 ];
        ignore (Predictors.Pht.create ~size:1 ());
        ignore (Predictors.Btb.create ~size:1 ()));
    tc "one lookup then touch equals touch" `Quick (fun () ->
        (* The simulator's per-access path ([find], then [touch_found]
           by the way found) leaves the cache as [touch] does. *)
        let a = Cache.create ~sets:4 ~ways:2 () and b = Cache.create ~sets:4 ~ways:2 () in
        let prng = Random.State.make [| 7 |] in
        for _ = 1 to 2000 do
          let addr = addr_of_line (Random.State.int prng 24) in
          let expected = Cache.touch a addr in
          let x = Int64.to_int addr in
          let set = Cache.set_of b x in
          let way = Cache.find b ~set x in
          Cache.touch_found b ~set x ~way;
          check bool "hit" (expected = `Hit) (way >= 0)
        done;
        for line = 0 to 23 do
          check bool "same lines" (Cache.contains a (addr_of_line line))
            (Cache.contains b (addr_of_line line))
        done);
  ]

(* --- Predictors --------------------------------------------------------- *)

let predictor_tests =
  [
    tc "pht starts not-taken and trains with hysteresis" `Quick (fun () ->
        let p = Predictors.Pht.create () in
        check bool "cold (weakly not-taken)" false (Predictors.Pht.predict p ~pc:10);
        Predictors.Pht.update p ~pc:10 ~taken:true;
        check bool "weak counter flips on one update" true
          (Predictors.Pht.predict p ~pc:10);
        (* saturate at strongly-taken, then check the 2-bit hysteresis *)
        Predictors.Pht.update p ~pc:10 ~taken:true;
        Predictors.Pht.update p ~pc:10 ~taken:true;
        Predictors.Pht.update p ~pc:10 ~taken:false;
        check bool "hysteresis" true (Predictors.Pht.predict p ~pc:10);
        Predictors.Pht.update p ~pc:10 ~taken:false;
        check bool "untrained" false (Predictors.Pht.predict p ~pc:10));
    tc "pht entries are per address" `Quick (fun () ->
        let p = Predictors.Pht.create () in
        Predictors.Pht.update p ~pc:1 ~taken:true;
        Predictors.Pht.update p ~pc:1 ~taken:true;
        check bool "other pc unaffected" false (Predictors.Pht.predict p ~pc:2));
    tc "pht reset" `Quick (fun () ->
        let p = Predictors.Pht.create () in
        Predictors.Pht.update p ~pc:1 ~taken:true;
        Predictors.Pht.update p ~pc:1 ~taken:true;
        Predictors.Pht.reset p;
        check bool "reset" false (Predictors.Pht.predict p ~pc:1));
    tc "rsb is LIFO with underflow" `Quick (fun () ->
        let r = Predictors.Rsb.create ~depth:2 () in
        check bool "underflow" true (Predictors.Rsb.pop r = None);
        Predictors.Rsb.push r 1;
        Predictors.Rsb.push r 2;
        check bool "lifo" true (Predictors.Rsb.pop r = Some 2);
        check bool "lifo2" true (Predictors.Rsb.pop r = Some 1);
        check bool "empty again" true (Predictors.Rsb.pop r = None));
    tc "rsb overflow drops the oldest" `Quick (fun () ->
        let r = Predictors.Rsb.create ~depth:2 () in
        Predictors.Rsb.push r 1;
        Predictors.Rsb.push r 2;
        Predictors.Rsb.push r 3;
        check bool "top" true (Predictors.Rsb.pop r = Some 3);
        check bool "second" true (Predictors.Rsb.pop r = Some 2);
        check bool "oldest gone" true (Predictors.Rsb.pop r = None));
    tc "btb remembers the last target" `Quick (fun () ->
        let b = Predictors.Btb.create () in
        check bool "cold" true (Predictors.Btb.predict b ~pc:3 = None);
        Predictors.Btb.update b ~pc:3 ~target:7;
        check bool "warm" true (Predictors.Btb.predict b ~pc:3 = Some 7);
        Predictors.Btb.update b ~pc:3 ~target:9;
        check bool "updated" true (Predictors.Btb.predict b ~pc:3 = Some 9));
  ]

(* --- Page table ----------------------------------------------------------- *)

let page_tests =
  [
    tc "assist fires once per clearing" `Quick (fun () ->
        let p = Page_table.create () in
        check bool "set by default" false (Page_table.access p ~page:0);
        Page_table.clear_accessed p ~page:0;
        check bool "assist" true (Page_table.access p ~page:0);
        check bool "only once" false (Page_table.access p ~page:0);
        Page_table.clear_accessed p ~page:0;
        check bool "again after clearing" true (Page_table.access p ~page:0));
    tc "out of range pages are ignored" `Quick (fun () ->
        let p = Page_table.create () in
        Page_table.clear_accessed p ~page:99;
        check bool "no assist" false (Page_table.access p ~page:99));
  ]

(* --- Config ------------------------------------------------------------------ *)

let config_tests =
  [
    tc "division latency grows with operand size" `Quick (fun () ->
        let cfg = Uarch_config.skylake ~v4_patch:false in
        let l v = Uarch_config.div_latency cfg ~dividend:v in
        check bool "zero fastest" true (l 0L < l 0xFFL);
        check bool "monotone" true (l 0xFFL < l 0xFFFF_FFFFL);
        check bool "wide slowest" true (l 0xFFFF_FFFFL < l (-1L));
        (* one step per significant nibble, across the 32-bit halves *)
        let lat = cfg.Uarch_config.lat in
        List.iter
          (fun (v, nibbles) ->
            check int (Printf.sprintf "0x%Lx" v)
              (lat.Uarch_config.div_base + (nibbles * lat.Uarch_config.div_per_nibble))
              (l v))
          [
            (0L, 0); (1L, 1); (0xFL, 1); (0x10L, 2); (0xFFFF_FFFFL, 8);
            (0x1_0000_0000L, 9); (0x8000_0000_0000L, 12); (-1L, 16);
            (Int64.min_int, 16);
          ]);
    tc "presets" `Quick (fun () ->
        let sky = Uarch_config.skylake ~v4_patch:false in
        check bool "sky no v4 patch" false sky.Uarch_config.v4_patch;
        check bool "sky no mds patch" false sky.Uarch_config.mds_patch;
        check bool "sky stores at retire" false
          sky.Uarch_config.speculative_store_eviction;
        let cl = Uarch_config.coffee_lake in
        check bool "cl mds patch" true cl.Uarch_config.mds_patch;
        check bool "cl v4 patch" true cl.Uarch_config.v4_patch;
        check bool "cl spec store eviction" true
          cl.Uarch_config.speculative_store_eviction);
  ]

(* --- Attack ---------------------------------------------------------------- *)

let attack_tests =
  [
    tc "prime+probe observes the victim's sets" `Quick (fun () ->
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
        let trace =
          Attack.observe cpu Attack.prime_probe (fun () ->
              ignore (Cache.touch (Cpu.cache cpu) (addr_of_line 9)))
        in
        check bool "set 9" true (Htrace.mem 9 trace);
        check int "only set 9" 1 (Htrace.cardinal trace));
    tc "flush+reload observes lines over two pages" `Quick (fun () ->
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
        let line = 64 + 3 (* page 1 *) in
        let trace =
          Attack.observe cpu Attack.flush_reload (fun () ->
              ignore (Cache.touch (Cpu.cache cpu) (addr_of_line line)))
        in
        check bool "line present" true (Htrace.mem line trace));
    tc "assist threat clears the page bit" `Quick (fun () ->
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
        let _ = Attack.observe cpu Attack.prime_probe_assist (fun () -> ()) in
        check bool "page 0 cleared" false
          (Page_table.accessed (Cpu.pages cpu) ~page:0));
    tc "trace domains" `Quick (fun () ->
        check int "pp" 64 (Attack.trace_domain Attack.Prime_probe);
        check int "fr" 128 (Attack.trace_domain Attack.Flush_reload));
  ]

(* --- Htrace -------------------------------------------------------------------- *)

let htrace_tests =
  [
    tc "subset and comparable" `Quick (fun () ->
        let a = Htrace.of_list [ 1; 2 ] and b = Htrace.of_list [ 1; 2; 3 ] in
        check bool "subset" true (Htrace.subset a b);
        check bool "not superset" false (Htrace.subset b a);
        check bool "comparable" true (Htrace.comparable a b);
        let c = Htrace.of_list [ 1; 4 ] in
        check bool "incomparable" false (Htrace.comparable b c));
    tc "printing" `Quick (fun () ->
        let t = Htrace.of_list [ 0; 5 ] in
        let s = Format.asprintf "%a" Htrace.pp t in
        check int "64 wide" 64 (String.length s);
        check char "bit 0" '1' s.[0];
        check char "bit 5" '1' s.[5];
        check char "bit 6" '0' s.[6]);
  ]

(* --- Cpu engine ----------------------------------------------------------------- *)

(* A little harness: build a state with given pool-register values and a
   memory filler. *)
let make_state ?(regs = []) ?(mem = fun _ -> 0) () =
  let s = State.create () in
  List.iter (fun (r, v) -> State.set_reg s r Width.W64 v) regs;
  Memory.fill s.State.mem ~f:mem;
  s

let compile p = Compiled.of_flat (Program.flatten_exn p)
let v1_flat = compile Revizor.Gadgets.spectre_v1.Revizor.Gadgets.program
let v4_flat = compile Revizor.Gadgets.spectre_v4.Revizor.Gadgets.program

let has_kind kind cpu =
  List.exists (fun (e : Cpu.event) -> e.Cpu.kind = kind) (Cpu.events cpu)

let transient_sets cpu =
  List.concat_map (fun (e : Cpu.event) -> e.Cpu.touched_sets) (Cpu.events cpu)

(* Drive the V1 gadget: train the branch not-taken (mem[0] <= 64), then run
   a taken input (mem[0] > 64) — predicted not-taken, it mispredicts, and
   the wrong path is the fall-through leak block. *)
let taken_mem off = if off < 8 then 0xFF else 0

let run_v1 cpu ~leak_line =
  for _ = 1 to 3 do
    let s = make_state ~mem:(fun _ -> 0) () in
    Cpu.run cpu v1_flat s
  done;
  let s =
    make_state
      ~regs:[ (Reg.RAX, Int64.of_int (leak_line * 64)) ]
      ~mem:taken_mem ()
  in
  Cpu.run cpu v1_flat s

let cpu_tests =
  [
    (* The interpreted engine leaves every register and flag exact; the
       compiled one skips values no observation reads, so memory and pc
       are what it keeps exact. *)
    tc "architectural state matches the pure emulator" `Quick (fun () ->
        List.iter
          (fun (g : Revizor.Gadgets.t) ->
            let flat = Program.flatten_exn g.Revizor.Gadgets.program in
            let mem off = (off * 7) land 0xFF in
            let regs = [ (Reg.RAX, 64L); (Reg.RBX, 128L); (Reg.RCX, 192L) ] in
            let s_cpu = make_state ~regs ~mem () in
            let s_compiled = make_state ~regs ~mem () in
            let s_emu = make_state ~regs ~mem () in
            let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:false) in
            Cpu.run cpu (Compiled.interpreted flat) s_cpu;
            Cpu.run (Cpu.create (Uarch_config.skylake ~v4_patch:false))
              (Compiled.of_flat flat) s_compiled;
            ignore (Semantics.run flat s_emu);
            check bool (g.Revizor.Gadgets.name ^ " arch state equal") true
              (State.equal_arch s_cpu s_emu);
            check bool (g.Revizor.Gadgets.name ^ " compiled: memory and pc equal") true
              (Memory.equal s_compiled.State.mem s_emu.State.mem
              && s_compiled.State.pc = s_emu.State.pc))
          (List.filter
             (fun (g : Revizor.Gadgets.t) -> not g.Revizor.Gadgets.needs_assist)
             Revizor.Gadgets.all));
    tc "v1: trained branch mispredicts and leaks transiently" `Quick (fun () ->
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
        run_v1 cpu ~leak_line:3;
        check bool "mispredict event" true (has_kind Cpu.Branch_mispredict cpu);
        check bool "leak line touched" true (List.mem 3 (transient_sets cpu)));
    tc "v1: cold predictor on a not-taken branch does not speculate" `Quick
      (fun () ->
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
        let s = make_state ~mem:(fun _ -> 0) () in
        Cpu.run cpu v1_flat s;
        check bool "no mispredict" false (has_kind Cpu.Branch_mispredict cpu));
    tc "v4: bypass occurs without the patch" `Quick (fun () ->
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:false) in
        let s = make_state ~mem:(fun off -> if off = 128 then 0x80 else 0) () in
        Cpu.run cpu v4_flat s;
        check bool "bypass event" true (has_kind Cpu.Store_bypass cpu);
        (* the stale value mem[128] = 0x80 -> line 2 *)
        check bool "stale line touched" true (List.mem 2 (transient_sets cpu)));
    tc "v4: a load bypasses the newest unresolved store" `Quick (fun () ->
        (* Two stores to one late-resolving address (RAX = 192, set 3),
           then a load from it: the episode forwards the memory value from
           before the newer store (64, written by the older one), so the
           transmit touches set 1; the older store's stale value (0)
           would touch set 0. *)
        let open Instruction in
        let rr x = Operand.reg x in
        let flat =
          compile
            (Program.of_insts
               [
                 mov (rr Reg.RDI) (Operand.mem ~base:Reg.sandbox_base ~disp:128 ());
                 binop Opcode.And (rr Reg.RDI) (Operand.imm 0);
                 binop Opcode.Add (rr Reg.RDI) (rr Reg.RAX);
                 mov (Operand.sandbox Reg.RDI) (Operand.imm 64);
                 mov (Operand.sandbox Reg.RDI) (Operand.imm 128);
                 mov (rr Reg.RCX) (Operand.sandbox Reg.RAX);
                 binop Opcode.And (rr Reg.RCX) (Operand.imm64 Layout.line_mask_one_page);
                 mov (rr Reg.RDX) (Operand.sandbox Reg.RCX);
               ])
        in
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:false) in
        Cpu.run cpu flat (make_state ~regs:[ (Reg.RAX, 192L) ] ());
        check (Alcotest.list string) "one bypass"
          [ Cpu.kind_to_string Cpu.Store_bypass ]
          (List.map (fun (e : Cpu.event) -> Cpu.kind_to_string e.Cpu.kind) (Cpu.events cpu));
        check (Alcotest.list int) "transient sets" [ 1; 3 ] (transient_sets cpu));
    tc "v4: pruning keeps the unresolved stores intact" `Quick (fun () ->
        (* Three stores: S0 (to 256, over 0x80) resolves at cycle 1, S1
           (late, to 192) at 54, S2 (to 192) at 3. The load at pc 9 is
           fetched at cycle 2 and issues at 4: S0 is pruned, S2 is
           resolved, so it bypasses S1 and forwards memory from before
           S1 (0, set 0) — not S2's stale value (64, written by S1;
           set 1) nor S0's (0x80, set 2). *)
        let open Instruction in
        let rr x = Operand.reg x in
        let flat =
          compile
            (Program.of_insts
               [
                 mov (Operand.mem ~base:Reg.sandbox_base ~disp:256 ()) (rr Reg.RBX);
                 mov (rr Reg.RDI) (Operand.mem ~base:Reg.sandbox_base ~disp:128 ());
                 binop Opcode.And (rr Reg.RDI) (Operand.imm 0);
                 binop Opcode.Add (rr Reg.RDI) (rr Reg.RAX);
                 mov (Operand.sandbox Reg.RDI) (Operand.imm 64);
                 binop Opcode.Add (rr Reg.RAX) (Operand.imm 0);
                 mov (Operand.sandbox Reg.RAX) (Operand.imm 128);
                 mov (rr Reg.RSI) (rr Reg.RAX);
                 binop Opcode.Add (rr Reg.RSI) (Operand.imm 0);
                 mov (rr Reg.RCX) (Operand.sandbox Reg.RSI);
                 binop Opcode.And (rr Reg.RCX) (Operand.imm64 Layout.line_mask_one_page);
                 mov (rr Reg.RDX) (Operand.sandbox Reg.RCX);
               ])
        in
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:false) in
        Cpu.run cpu flat
          (make_state ~regs:[ (Reg.RAX, 192L) ]
             ~mem:(fun off -> if off = 256 then 0x80 else 0)
             ());
        check bool "bypass" true (has_kind Cpu.Store_bypass cpu);
        check (Alcotest.list int) "transient sets" [ 0; 3 ] (transient_sets cpu));
    tc "v4: the store buffer grows without losing entries" `Quick (fun () ->
        (* Ten late-resolving stores, one per line from offset 0, then a
           load from offset 0: it bypasses the oldest store, which the
           buffer copied when it grew past eight entries, and forwards
           its pre-store value (0x140, set 5). The transmitting load
           reads offset 0 too, and bypasses the same store again. *)
        let open Instruction in
        let rr x = Operand.reg x in
        let flat =
          compile
            (Program.of_insts
               ([
                  mov (rr Reg.RDI) (Operand.mem ~base:Reg.sandbox_base ~disp:1024 ());
                  binop Opcode.And (rr Reg.RDI) (Operand.imm 0);
                ]
               @ List.init 10 (fun k ->
                     mov (Operand.sandbox ~disp:(64 * k) Reg.RDI) (Operand.imm 0))
               @ [
                   mov (rr Reg.RCX) (Operand.mem ~base:Reg.sandbox_base ());
                   binop Opcode.And (rr Reg.RCX) (Operand.imm64 Layout.line_mask_one_page);
                   mov (rr Reg.RDX) (Operand.sandbox Reg.RCX);
                 ]))
        in
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:false) in
        Cpu.run cpu flat
          (make_state ~mem:(fun off -> if off = 1 then 0x01 else if off = 0 then 0x40 else 0) ());
        check bool "bypass" true (has_kind Cpu.Store_bypass cpu);
        check
          (Alcotest.list (Alcotest.list int))
          "sets per episode" [ [ 0; 5 ]; [ 0 ] ]
          (List.map (fun (e : Cpu.event) -> e.Cpu.touched_sets) (Cpu.events cpu)));
    tc "v4: a store is bypassable until its address resolves" `Quick (fun () ->
        (* The store's address register is ready at cycle 1, so its
           address resolves at cycle 2. With four instructions fetched per
           cycle, a load at pc 4 issues at cycle 1 and bypasses it; a load
           at pc 8 issues at cycle 2 and does not. *)
        let open Instruction in
        let rr x = Operand.reg x in
        let bypasses load_pc =
          let flat =
            compile
              (Program.of_insts
                 ([
                    binop Opcode.Add (rr Reg.RAX) (Operand.imm 0);
                    mov (Operand.sandbox Reg.RAX) (rr Reg.RBX);
                  ]
                 @ List.init (load_pc - 2) (fun _ -> nop)
                 @ [ mov (rr Reg.RCX) (Operand.sandbox Reg.RAX) ]))
          in
          let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:false) in
          Cpu.run cpu flat (make_state ());
          has_kind Cpu.Store_bypass cpu
        in
        check bool "load at pc 4" true (bypasses 4);
        check bool "load at pc 8" false (bypasses 8));
    tc "transient episodes nest inside an outer save" `Quick (fun () ->
        (* The executor holds a save open over every run; each transient
           episode opens and undoes a level of its own inside it. The
           run's architectural stores must still be undone exactly by the
           outer level afterwards. *)
        let v1_1 = compile Revizor.Gadgets.spectre_v1_1.Revizor.Gadgets.program in
        let outer = State.slot () in
        let run_saved cpu flat s kind =
          let before = State.copy s in
          State.save s outer;
          Cpu.run cpu flat s;
          check bool "episode ran" true (has_kind kind cpu);
          check bool "the run changed the state" false (State.equal_arch before s);
          State.undo s outer;
          check bool "outer undo exact" true (State.equal_arch before s);
          check int "pc" before.State.pc s.State.pc
        in
        (* Store bypass: an architectural store, then an episode that
           poisons memory with the stale value. *)
        run_saved
          (Cpu.create (Uarch_config.skylake ~v4_patch:false))
          v4_flat
          (make_state ~mem:(fun off -> if off = 128 then 0x80 else (off * 7) land 0xFF) ())
          Cpu.Store_bypass;
        (* Mispredicted branch (cold predictor, taken input) whose
           transient path stores. *)
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
        run_saved cpu v1_1
          (make_state ~regs:[ (Reg.RAX, 128L) ] ~mem:taken_mem ())
          Cpu.Branch_mispredict);
    tc "v4: the SSBD patch suppresses the bypass" `Quick (fun () ->
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
        let s = make_state ~mem:(fun off -> if off = 128 then 0x80 else 0) () in
        Cpu.run cpu v4_flat s;
        check bool "no bypass" false (has_kind Cpu.Store_bypass cpu));
    tc "lfence stops transient execution" `Quick (fun () ->
        (* fence the leak block of the V1 gadget *)
        let g = Revizor.Gadgets.spectre_v1.Revizor.Gadgets.program in
        let fenced =
          Program.make
            (List.map
               (fun (b : Program.block) ->
                 if b.Program.label = "leak" then
                   { b with Program.insts = Instruction.lfence :: b.Program.insts }
                 else b)
               g.Program.blocks)
        in
        let flat = compile fenced in
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
        let s = make_state ~regs:[ (Reg.RAX, 192L) ] ~mem:taken_mem () in
        Cpu.run cpu flat s;
        let transient = transient_sets cpu in
        check bool "no transient leak" false (List.mem 3 transient));
    tc "assisted load forwards fill-buffer data (MDS)" `Quick (fun () ->
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
        let flat =
          compile Revizor.Gadgets.mds_lfb.Revizor.Gadgets.program
        in
        Page_table.clear_accessed (Cpu.pages cpu) ~page:0;
        (* the page-1 word at offset 4096 holds the "secret" 0x100 -> line 4 *)
        let s =
          make_state ~mem:(fun off -> if off = 4097 then 0x01 else 0) ()
        in
        Cpu.run cpu flat s;
        check bool "assist event" true (has_kind Cpu.Assist_load_forward cpu);
        check bool "secret line touched" true (List.mem 4 (transient_sets cpu)));
    tc "MDS patch zeroes the forwarded value" `Quick (fun () ->
        let cpu = Cpu.create Uarch_config.coffee_lake in
        let flat =
          compile Revizor.Gadgets.mds_lfb.Revizor.Gadgets.program
        in
        Page_table.clear_accessed (Cpu.pages cpu) ~page:0;
        let s =
          make_state ~mem:(fun off -> if off = 4097 then 0x01 else 0) ()
        in
        Cpu.run cpu flat s;
        (* the transient transmit goes through line 0 (value zero), not 4 *)
        check bool "no secret line" false (List.mem 4 (transient_sets cpu)));
    tc "assisted store breaks forwarding (LVI) only with the leak flag" `Quick
      (fun () ->
        let flat =
          compile Revizor.Gadgets.lvi_null.Revizor.Gadgets.program
        in
        let run cfg =
          let cpu = Cpu.create cfg in
          Page_table.clear_accessed (Cpu.pages cpu) ~page:0;
          let s = make_state ~mem:(fun off -> if off = 65 then 0x01 else 0) () in
          Cpu.run cpu flat s;
          cpu
        in
        let coffee = run Uarch_config.coffee_lake in
        check bool "lvi event on coffee lake" true
          (has_kind Cpu.Assist_store_forward coffee);
        check bool "stale line leaked" true (List.mem 4 (transient_sets coffee));
        let sky = run (Uarch_config.skylake ~v4_patch:true) in
        check bool "no lvi on skylake" false
          (has_kind Cpu.Assist_store_forward sky));
    tc "speculative stores touch the cache only on Coffee Lake" `Quick
      (fun () ->
        let flat =
          compile Revizor.Gadgets.spec_store_eviction.Revizor.Gadgets.program
        in
        let run cfg =
          let cpu = Cpu.create cfg in
          (* a taken input on a cold (not-taken-predicting) PHT mispredicts
             into the fall-through leak block *)
          let s = make_state ~regs:[ (Reg.RAX, 64L) ] ~mem:taken_mem () in
          Cpu.run cpu flat s;
          cpu
        in
        (* transient store target: 2048 + 64 -> set 33 *)
        let coffee = run Uarch_config.coffee_lake in
        check bool "coffee lake leaks" true (List.mem 33 (transient_sets coffee));
        let sky = run (Uarch_config.skylake ~v4_patch:true) in
        check bool "skylake does not" false (List.mem 33 (transient_sets sky)));
    tc "ret2spec: RSB predicts the stale return target" `Quick (fun () ->
        let flat =
          compile Revizor.Gadgets.ret2spec.Revizor.Gadgets.program
        in
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
        let s = make_state ~regs:[ (Reg.RAX, 128L) ] ~mem:(fun _ -> 0) () in
        Cpu.run cpu flat s;
        check bool "return mispredict" true (has_kind Cpu.Return_mispredict cpu);
        check bool "leak line" true (List.mem 2 (transient_sets cpu)));
    tc "call/ret fill only the return-address line" `Quick (fun () ->
        (* CALL pushes the return address to stack_top - 8 (set 63); RET
           reads it back from there. Neither touches stack_top's own line
           (set 0), so a data-free call/return probes as exactly {63}. *)
        let flat =
          compile
            (Program.make
               [
                 Program.block "main" [ Instruction.call "f" ];
                 Program.block "rest" [ Instruction.jmp "exit" ];
                 Program.block "f" [ Instruction.ret ];
                 Program.block "exit" [];
               ])
        in
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
        let trace =
          Attack.observe cpu Attack.prime_probe (fun () ->
              Cpu.run cpu flat (make_state ()))
        in
        check (Alcotest.list int) "probed sets" [ 63 ] (Htrace.elements trace);
        check bool "no return mispredict" false (has_kind Cpu.Return_mispredict cpu));
    tc "reset_session clears microarchitectural state" `Quick (fun () ->
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
        run_v1 cpu ~leak_line:3;
        Cpu.reset_session cpu;
        check bool "cache flushed" false (Cache.contains (Cpu.cache cpu) base);
        check bool "events cleared" true (Cpu.events cpu = []);
        let s = make_state ~mem:(fun _ -> 0) () in
        Cpu.run cpu v1_flat s;
        check bool "predictor reset" false (has_kind Cpu.Branch_mispredict cpu));
    tc "division latency gates transient loads (V1-var race)" `Quick (fun () ->
        let flat =
          compile Revizor.Gadgets.spectre_v1_var.Revizor.Gadgets.program
        in
        let run ~rax ~rcx =
          let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
          let s =
            make_state ~regs:[ (Reg.RAX, rax); (Reg.RCX, rcx) ] ~mem:taken_mem ()
          in
          Cpu.run cpu flat s;
          transient_sets cpu
        in
        (* fast div(RAX) executes load at line 5; slow div gates it;
           symmetric for RCX and line 21 *)
        let fast_slow = run ~rax:0L ~rcx:64L in
        check bool "load1 executed" true (List.mem 5 fast_slow);
        check bool "load2 gated" false (List.mem 21 fast_slow);
        let slow_fast = run ~rax:64L ~rcx:0L in
        check bool "load1 gated" false (List.mem 5 slow_fast);
        check bool "load2 executed" true (List.mem 21 slow_fast));
  ]

(* --- Ports / port-contention channel (extension) ----------------------- *)

let ports_tests =
  [
    tc "port map covers every opcode" `Quick (fun () ->
        List.iter
          (fun spec ->
            let i =
              Instruction.make
                ~operands:
                  (List.mapi
                     (fun pos kind ->
                       let w =
                         match (pos, spec.Revizor_isa.Catalog.src_width) with
                         | 1, Some ws -> ws
                         | _ -> spec.Revizor_isa.Catalog.width
                       in
                       match kind with
                       | Revizor_isa.Catalog.KReg -> Operand.reg ~w Reg.RAX
                       | Revizor_isa.Catalog.KImm -> Operand.imm 1
                       | Revizor_isa.Catalog.KMem -> Operand.sandbox ~w Reg.RBX
                       | Revizor_isa.Catalog.KCl -> Operand.Reg (Reg.RCX, Width.W8))
                     spec.Revizor_isa.Catalog.shape)
                spec.Revizor_isa.Catalog.opcode
            in
            List.iter
              (fun p -> check bool "port in range" true (p >= 0 && p < Ports.n_ports))
              (Ports.of_instruction i))
          (Revizor_isa.Catalog.body_specs
             [ Revizor_isa.Catalog.AR; Revizor_isa.Catalog.MEM; Revizor_isa.Catalog.VAR ]));
    tc "memory ops use load/store ports" `Quick (fun () ->
        let load = Instruction.mov (Operand.reg Reg.RBX) (Operand.sandbox Reg.RAX) in
        check bool "load port" true (List.mem 2 (Ports.of_instruction load));
        let store = Instruction.mov (Operand.sandbox Reg.RAX) (Operand.reg Reg.RBX) in
        check bool "store data port" true (List.mem 4 (Ports.of_instruction store));
        check bool "store addr port" true (List.mem 7 (Ports.of_instruction store)));
    tc "bucket encoding is monotone" `Quick (fun () ->
        check int "zero" 0 (Ports.bucket_of_count 0);
        let rec mono last c =
          if c > 4096 then ()
          else begin
            let b = Ports.bucket_of_count c in
            check bool "monotone" true (b >= last);
            check bool "bounded" true (b < Ports.buckets);
            mono b (c * 2)
          end
        in
        mono 0 1);
    tc "cpu counts ports per run" `Quick (fun () ->
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
        let flat =
          compile
            (Program.of_insts
               [
                 Instruction.binop Opcode.Imul (Operand.reg Reg.RAX) (Operand.reg Reg.RAX);
                 Instruction.mov (Operand.reg Reg.RBX) (Operand.sandbox Reg.RAX);
               ])
        in
        Cpu.run cpu flat (make_state ());
        let counts = Cpu.port_counts cpu in
        check int "one mul" 1 counts.(1);
        check int "two loads... one" 1 counts.(2);
        (* a second run resets the counters *)
        Cpu.run cpu flat (make_state ());
        check int "reset between runs" 1 (Cpu.port_counts cpu).(1));
    tc "port-contention observation sees transient multiplies" `Quick (fun () ->
        let g = Revizor.Gadgets.spectre_v1_ports in
        let flat = compile g.Revizor.Gadgets.program in
        let cpu = Cpu.create (Uarch_config.skylake ~v4_patch:true) in
        let observe regs =
          Attack.observe cpu Attack.port_contention (fun () ->
              Cpu.run cpu flat (make_state ~regs ()))
        in
        (* taken branch (RBX nonzero); cold predictor mispredicts; fast
           division (RAX=0) lets the multiply chain issue *)
        let fast = observe [ (Reg.RBX, 64L); (Reg.RAX, 0L) ] in
        Cpu.reset_session cpu;
        let slow = observe [ (Reg.RBX, 64L); (Reg.RAX, 64L) ] in
        check bool "different port-1 buckets" false (Htrace.equal fast slow));
  ]

let () =
  Alcotest.run "uarch"
    [
      ("cache", cache_tests);
      ("predictors", predictor_tests);
      ("page_table", page_tests);
      ("config", config_tests);
      ("attack", attack_tests);
      ("htrace", htrace_tests);
      ("cpu", cpu_tests);
      ("ports", ports_tests);
    ]
