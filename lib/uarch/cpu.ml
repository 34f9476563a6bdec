open Revizor_isa
open Revizor_emu

type speculation_kind =
  | Branch_mispredict
  | Return_mispredict
  | Indirect_mispredict
  | Store_bypass
  | Assist_load_forward
  | Assist_store_forward

type event = {
  kind : speculation_kind;
  origin_pc : int;
  transient_loads : int;
  touched_sets : int list;
}

(* The store buffer: the architectural stores since the last serializing
   instruction, oldest first, in parallel arrays so that registering a
   store allocates nothing (they double when full). A store's address
   passed its pre-read, so it is a sandbox address and fits an int
   exactly; its pre-store value is a full word, kept in [sb_old] at byte
   offset [8 * k]. *)
type store_buffer = {
  mutable sb_len : int;
  mutable sb_addr : int array;
  mutable sb_width : Width.t array;
  mutable sb_old : Bytes.t;  (* memory value before the store executed *)
  mutable sb_ready : int array;  (* cycle at which the address resolves *)
  mutable sb_assist : bool array;
}

type timing = {
  mutable fetch_pos : int;
  reg_ready : int array;
  mutable flags_ready : int;
}

type t = {
  cfg : Uarch_config.t;
  cache : Cache.t;
  pht : Predictors.Pht.t;
  btb : Predictors.Btb.t;
  rsb : Predictors.Rsb.t;
  pages : Page_table.t;
  mutable fill_buffer : int64;
  mutable events : event list;
  port_counts : int array;  (** µops issued per execution port, per run *)
  (* Preallocated per-run scratch, reset in place: the executor runs the
     same program thousands of times per test case (warm-up, repetitions,
     swap checks), so none of this may allocate per run — let alone per
     instruction. *)
  tm : timing;
  ab : Compiled.abuf;  (* access buffer shared by all raw actions *)
  saved_regs : int array;  (* reg_ready rollback for transient episodes *)
  episode : State.slot;  (* architectural rollback of transient episodes *)
  sb : store_buffer;
  touched : int array;
      (* bitset of the cache sets the current episode touched, 32 per word *)
}

let create cfg =
  let cache = Cache.create () in
  {
    cfg;
    cache;
    pht = Predictors.Pht.create ~size:cfg.Uarch_config.pht_size ();
    btb = Predictors.Btb.create ~size:cfg.Uarch_config.btb_size ();
    rsb = Predictors.Rsb.create ~depth:cfg.Uarch_config.rsb_depth ();
    pages = Page_table.create ();
    fill_buffer = 0L;
    events = [];
    port_counts = Array.make Ports.n_ports 0;
    tm = { fetch_pos = 0; reg_ready = Array.make 16 0; flags_ready = 0 };
    ab = Compiled.abuf_create ();
    saved_regs = Array.make 16 0;
    episode = State.slot ();
    sb =
      {
        sb_len = 0;
        sb_addr = Array.make 8 0;
        sb_width = Array.make 8 Width.W64;
        sb_old = Bytes.create (8 * 8);
        sb_ready = Array.make 8 0;
        sb_assist = Array.make 8 false;
      };
    touched = Array.make ((Cache.sets cache + 31) / 32) 0;
  }

let config t = t.cfg
let cache t = t.cache
let pages t = t.pages

let reset_session t =
  Cache.flush_all t.cache;
  Predictors.Pht.reset t.pht;
  Predictors.Btb.reset t.btb;
  Predictors.Rsb.reset t.rsb;
  Page_table.set_all t.pages;
  t.fill_buffer <- 0L;
  t.events <- []

(* A run's predictor footprint (soundness argument in the interface).
   [run_transient] never touches a predictor, so only the architectural
   Jcc, JmpInd, CALL and RET steps of [run] do, each at its own pc. The
   RSB is taken whole: a RET may pop any depth and an overflowing CALL
   drops the oldest entry. *)
type footprint = { fp_jcc : int array; fp_ind : int array; fp_rsb : bool }

let footprint (prog : Compiled.t) =
  let jcc = ref [] and ind = ref [] and rsb = ref false in
  Array.iteri
    (fun pc (d : Compiled.desc) ->
      match d.Compiled.d_inst.Instruction.opcode with
      | Opcode.Jcc _ -> jcc := pc :: !jcc
      | Opcode.JmpInd -> ind := pc :: !ind
      | Opcode.Call | Opcode.Ret -> rsb := true
      | _ -> ())
    prog.Compiled.descs;
  { fp_jcc = Array.of_list !jcc; fp_ind = Array.of_list !ind; fp_rsb = !rsb }

(* PHT counters at the Jcc pcs, then BTB entries at the indirect-jump
   pcs, plus the RSB list (shared: RSB lists are immutable). *)
type snapshot = { sn_pred : int array; sn_rsb : int list }

(* Shared by every empty footprint (branch-free programs), whose runs the
   memo replays most: no allocation per run. *)
let empty_snapshot = { sn_pred = [||]; sn_rsb = [] }

let snapshot t fp =
  let nj = Array.length fp.fp_jcc and ni = Array.length fp.fp_ind in
  if nj + ni = 0 && not fp.fp_rsb then empty_snapshot
  else begin
    let pred = Array.make (nj + ni) 0 in
    for k = 0 to nj - 1 do
      pred.(k) <- Predictors.Pht.get t.pht ~pc:fp.fp_jcc.(k)
    done;
    for k = 0 to ni - 1 do
      pred.(nj + k) <- Predictors.Btb.get t.btb ~pc:fp.fp_ind.(k)
    done;
    { sn_pred = pred; sn_rsb = (if fp.fp_rsb then Predictors.Rsb.entries t.rsb else []) }
  end

let matches t fp s =
  let nj = Array.length fp.fp_jcc and ni = Array.length fp.fp_ind in
  let ok = ref true and k = ref 0 in
  while !ok && !k < nj do
    ok := Predictors.Pht.get t.pht ~pc:fp.fp_jcc.(!k) = s.sn_pred.(!k);
    incr k
  done;
  k := 0;
  while !ok && !k < ni do
    ok := Predictors.Btb.get t.btb ~pc:fp.fp_ind.(!k) = s.sn_pred.(nj + !k);
    incr k
  done;
  !ok
  && ((not fp.fp_rsb)
     || List.equal Int.equal (Predictors.Rsb.entries t.rsb) s.sn_rsb)

let install t fp s =
  let nj = Array.length fp.fp_jcc in
  for k = 0 to nj - 1 do
    Predictors.Pht.set t.pht ~pc:fp.fp_jcc.(k) s.sn_pred.(k)
  done;
  for k = 0 to Array.length fp.fp_ind - 1 do
    Predictors.Btb.set t.btb ~pc:fp.fp_ind.(k) s.sn_pred.(nj + k)
  done;
  if fp.fp_rsb then Predictors.Rsb.restore t.rsb s.sn_rsb

let events t = List.rev t.events
let fill_buffer t = t.fill_buffer
let set_fill_buffer t v = t.fill_buffer <- v
let port_counts t = Array.copy t.port_counts

let count_ports t (d : Compiled.desc) =
  let ports = d.Compiled.d_ports in
  for k = 0 to Array.length ports - 1 do
    let p = ports.(k) in
    t.port_counts.(p) <- t.port_counts.(p) + 1
  done

let all_kinds =
  [
    Branch_mispredict;
    Return_mispredict;
    Indirect_mispredict;
    Store_bypass;
    Assist_load_forward;
    Assist_store_forward;
  ]

let kind_to_string = function
  | Branch_mispredict -> "branch-mispredict"
  | Return_mispredict -> "return-mispredict"
  | Indirect_mispredict -> "indirect-mispredict"
  | Store_bypass -> "store-bypass"
  | Assist_load_forward -> "assist-load-forward"
  | Assist_store_forward -> "assist-store-forward"

let kind_of_string s =
  List.find_opt (fun k -> kind_to_string k = s) all_kinds

let pp_event fmt e =
  Format.fprintf fmt "%s@pc=%d (transient loads: %d, sets: %s)"
    (kind_to_string e.kind) e.origin_pc e.transient_loads
    (String.concat "," (List.map string_of_int e.touched_sets))

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let fetch_time t tm = tm.fetch_pos / t.cfg.Uarch_config.fetch_width

let src_ready tm (d : Compiled.desc) =
  let srcs = d.Compiled.d_srcs in
  let r = ref 0 in
  for k = 0 to Array.length srcs - 1 do
    let v = tm.reg_ready.(srcs.(k)) in
    if v > !r then r := v
  done;
  if d.Compiled.d_reads_flags && tm.flags_ready > !r then tm.flags_ready else !r

let addr_regs_ready t tm (mr : Compiled.mem_ref) =
  let b = mr.Compiled.mr_base and x = mr.Compiled.mr_index in
  let rb = if b < 0 then 0 else tm.reg_ready.(b)
  and rx = if x < 0 then 0 else tm.reg_ready.(x) in
  Int.max rb rx + t.cfg.Uarch_config.lat.Uarch_config.agu

(* Base execution latency, including the operand-dependent division time.
   The memory latency is added separately by the caller, which knows
   whether the access hit. *)
let exec_latency t (state : State.t) (d : Compiled.desc) =
  match d.Compiled.d_lat with
  | Compiled.Lat_div ->
      let dividend = State.get_reg state Reg.RAX d.Compiled.d_div_width in
      Uarch_config.div_latency t.cfg ~dividend
  | Compiled.Lat_mul -> t.cfg.Uarch_config.lat.Uarch_config.mul
  | Compiled.Lat_branch -> t.cfg.Uarch_config.lat.Uarch_config.branch_resolve
  | Compiled.Lat_alu -> t.cfg.Uarch_config.lat.Uarch_config.alu

let[@inline] overlaps a1 w1 a2 w2 =
  let open Int64 in
  let e1 = add a1 (of_int (Width.bytes w1)) and e2 = add a2 (of_int (Width.bytes w2)) in
  compare a1 e2 < 0 && compare a2 e1 < 0

(* ------------------------------------------------------------------ *)
(* Store buffer                                                        *)
(* ------------------------------------------------------------------ *)

let sb_grow sb =
  let n = sb.sb_len in
  let grow a zero =
    let a' = Array.make (2 * n) zero in
    Array.blit a 0 a' 0 n;
    a'
  in
  sb.sb_addr <- grow sb.sb_addr 0;
  sb.sb_width <- grow sb.sb_width Width.W64;
  sb.sb_ready <- grow sb.sb_ready 0;
  sb.sb_assist <- grow sb.sb_assist false;
  let old = Bytes.create (16 * n) in
  Bytes.blit sb.sb_old 0 old 0 (8 * n);
  sb.sb_old <- old

let[@inline] sb_push sb ~addr ~width ~old ~ready ~assist =
  if sb.sb_len = Array.length sb.sb_ready then sb_grow sb;
  let n = sb.sb_len in
  sb.sb_addr.(n) <- addr;
  sb.sb_width.(n) <- width;
  Bytes.set_int64_le sb.sb_old (8 * n) old;
  sb.sb_ready.(n) <- ready;
  sb.sb_assist.(n) <- assist;
  sb.sb_len <- n + 1

(* Pruning is unobservable. An entry whose address resolved by fetch time
   [ft] ([ready <= ft]) can never be bypassed again: fetch time never
   decreases along the architectural path, and a load bypasses only
   entries with [ready > start >= ft]. So pruning at loads alone is
   exact: each load sees exactly the entries with [ready > ft], in push
   order. Serializing instructions empty the buffer. *)
let sb_prune sb ~ft =
  let kept = ref 0 in
  for k = 0 to sb.sb_len - 1 do
    let ready = sb.sb_ready.(k) in
    if ready > ft then begin
      let j = !kept in
      if j < k then begin
        sb.sb_addr.(j) <- sb.sb_addr.(k);
        sb.sb_width.(j) <- sb.sb_width.(k);
        Bytes.set_int64_le sb.sb_old (8 * j) (Bytes.get_int64_le sb.sb_old (8 * k));
        sb.sb_ready.(j) <- ready;
        sb.sb_assist.(j) <- sb.sb_assist.(k)
      end;
      kept := j + 1
    end
  done;
  sb.sb_len <- !kept

(* The store a load of [width] bytes at [addr], fetched at [ft] and
   issuing at [start], transiently bypasses: the newest overlapping entry
   whose address is still unresolved at [start] and whose mechanism the
   configuration leaves open; -1 if none. The search runs newest first,
   so the load forwards from the youngest such store. *)
let bypass_candidate t ~ft ~start addr width =
  let sb = t.sb in
  sb_prune sb ~ft;
  let found = ref (-1) and k = ref (sb.sb_len - 1) in
  while !found < 0 && !k >= 0 do
    let e = !k in
    if
      sb.sb_ready.(e) > start
      && overlaps addr width (Int64.of_int sb.sb_addr.(e)) sb.sb_width.(e)
      &&
      if sb.sb_assist.(e) then t.cfg.Uarch_config.assist_forwarding_leak
      else not t.cfg.Uarch_config.v4_patch
    then found := e;
    decr k
  done;
  !found

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* One raw step of the instruction at [pc]: architectural effects on the
   state, memory accesses into the shared buffer. *)
let exec t (prog : Compiled.t) state pc =
  Compiled.abuf_clear t.ab;
  prog.Compiled.raws.(pc) state t.ab

(* The cache sets the current episode touched, in increasing order. *)
let touched_sets t =
  let acc = ref [] in
  for set = Cache.sets t.cache - 1 downto 0 do
    if t.touched.(set lsr 5) land (1 lsl (set land 31)) <> 0 then
      acc := set :: !acc
  done;
  !acc

(* Run a transient episode: execute from [start_pc] until the squash
   time, the ROB fills, a serializing instruction, a fault, or the end
   of the program. Architectural effects are rolled back; cache touches
   of accesses whose issue time beats the squash remain — that gating is
   what creates the latency races of §6.3. [poison] optionally rewrites
   one memory location first (stale-value forwarding). Every episode
   step takes the per-instruction path. *)
let run_transient t (prog : Compiled.t) (state : State.t) ~kind ~origin_pc
    ~start_pc ~squash_time ~poison =
  let code_len = Compiled.length prog in
  if start_pc >= 0 && start_pc <= code_len then begin
    let tm = t.tm and ab = t.ab and descs = prog.Compiled.descs in
    (* Episode rollback buffers are reused across episodes and runs;
       episodes never nest, so one of each suffices. Architectural
       rollback is the state's save/undo: a register blit plus the
       store-undo journal, whose level nests inside the one the
       executor holds open over the whole run. *)
    State.save state t.episode;
    Array.blit tm.reg_ready 0 t.saved_regs 0 16;
    let saved_flags = tm.flags_ready in
    let saved_fetch = tm.fetch_pos in
    let saved_fill = t.fill_buffer in
    (match poison with
    | Some (addr, w, v) -> Memory.write state.State.mem ~addr w v
    | None -> ());
    state.State.pc <- start_pc;
    let touched = t.touched in
    for w = 0 to Array.length touched - 1 do
      touched.(w) <- 0
    done;
    let loads = ref 0 in
    let budget = ref t.cfg.Uarch_config.rob_size in
    (try
       while state.State.pc < code_len && !budget > 0 do
         let ft = fetch_time t tm in
         if ft >= squash_time then raise Exit;
         let spc = state.State.pc in
         let d = descs.(spc) in
         if d.Compiled.d_serializing then raise Exit;
         tm.fetch_pos <- tm.fetch_pos + 1;
         decr budget;
         let start = Int.max ft (src_ready tm d) in
         if start < squash_time then count_ports t d;
         let lat = exec_latency t state d in
         exec t prog state spc;
         let mem_lat = ref 0 in
         for k = 0 to ab.Compiled.ab_len - 1 do
           let addr = ab.Compiled.ab_addr.(k) in
           if start < squash_time then begin
             let hit = Cache.contains t.cache addr in
             let is_store = ab.Compiled.ab_store.(k) in
             let observable =
               (not is_store) || t.cfg.Uarch_config.speculative_store_eviction
             in
             if observable then begin
               ignore (Cache.touch t.cache addr);
               let set = Cache.set_of_addr t.cache addr in
               touched.(set lsr 5) <- touched.(set lsr 5) lor (1 lsl (set land 31));
               t.fill_buffer <- ab.Compiled.ab_value.(k)
             end;
             incr loads;
             if not is_store then
               mem_lat := Int.max !mem_lat (Uarch_config.mem_latency t.cfg ~hit)
           end
           else
             (* the access never issued: dependents stay unready *)
             mem_lat := Int.max !mem_lat (squash_time - start + 1)
         done;
         let completion = start + lat + !mem_lat in
         let dsts = d.Compiled.d_dsts in
         for k = 0 to Array.length dsts - 1 do
           tm.reg_ready.(dsts.(k)) <- completion
         done;
         if d.Compiled.d_writes_flags then tm.flags_ready <- completion
       done
     with
    | Exit | Semantics.Division_fault | Memory.Fault _ -> ()
    | e ->
        State.undo state t.episode;
        raise e);
    State.undo state t.episode;
    Array.blit t.saved_regs 0 tm.reg_ready 0 16;
    tm.flags_ready <- saved_flags;
    tm.fetch_pos <- saved_fetch;
    t.fill_buffer <- saved_fill;
    t.events <-
      { kind; origin_pc; transient_loads = !loads; touched_sets = touched_sets t }
      :: t.events
  end

(* One step of the per-instruction path: the reference timing of every
   instruction, and the only path for memory, branch, DIV and
   serializing steps (and for every step of a program without a plan). *)
let step t (prog : Compiled.t) (state : State.t) pc =
  let tm = t.tm in
  let d = prog.Compiled.descs.(pc) in
  let ft = fetch_time t tm in
  tm.fetch_pos <- tm.fetch_pos + 1;
  if d.Compiled.d_serializing then begin
    (* Full barrier: every earlier instruction completes, every pending
       store resolves, the front end stalls until then. *)
    let horizon = ref tm.flags_ready in
    for r = 0 to 15 do
      horizon := Int.max !horizon tm.reg_ready.(r)
    done;
    let horizon = !horizon in
    for r = 0 to 15 do
      tm.reg_ready.(r) <- horizon
    done;
    tm.flags_ready <- horizon;
    tm.fetch_pos <- Int.max tm.fetch_pos (horizon * t.cfg.Uarch_config.fetch_width);
    t.sb.sb_len <- 0;
    state.State.pc <- pc + 1
  end
  else begin
    let start = Int.max ft (src_ready tm d) in
    count_ports t d;
    (* Memory-operand resolution, flattened into plain locals ([d_mem]
       carries the shape; [mem_addr]/[mem_ready] are only meaningful when
       it is [Some]). *)
    let mem = d.Compiled.d_mem in
    let mem_addr =
      match mem with Some mr -> mr.Compiled.mr_addr state | None -> 0L
    in
    let mem_ready =
      match mem with Some mr -> addr_regs_ready t tm mr | None -> 0
    in
    (* Microcode assist: first access to a page with a cleared Accessed
       bit. Loads transiently forward stale fill-buffer data (MDS) or
       zeros (MDS patch); stores resolve late and may be bypassed below
       (the LVI-class forwarding failure). *)
    let assist_fired =
      match mem with
      | Some _ when Layout.in_sandbox mem_addr ->
          let page = Layout.page_of_offset (Layout.offset_of_addr mem_addr) in
          Page_table.access t.pages ~page
      | Some _ | None -> false
    in
    let assist_resolve = start + t.cfg.Uarch_config.lat.Uarch_config.assist in
    (if assist_fired && d.Compiled.d_loads then
       match mem with
       | Some mr ->
           let tv = if t.cfg.Uarch_config.mds_patch then 0L else t.fill_buffer in
           (* The assist forwards the bogus value quickly — dependents of
              the poisoned load must not stall on a cache miss. *)
           ignore (Cache.touch t.cache mem_addr);
           run_transient t prog state ~kind:Assist_load_forward ~origin_pc:pc
             ~start_pc:pc ~squash_time:assist_resolve
             ~poison:(Some (mem_addr, mr.Compiled.mr_width, tv))
       | None -> ());
    (* Speculative store bypass: a load issuing before an older store's
       address has resolved transiently reads the stale memory value. *)
    (if d.Compiled.d_loads then
       match mem with
       | Some mr ->
           let k = bypass_candidate t ~ft ~start mem_addr mr.Compiled.mr_width in
           if k >= 0 then begin
             let sb = t.sb in
             let kind =
               if sb.sb_assist.(k) then Assist_store_forward else Store_bypass
             in
             run_transient t prog state ~kind ~origin_pc:pc ~start_pc:pc
               ~squash_time:sb.sb_ready.(k)
               ~poison:
                 (Some
                    ( Int64.of_int sb.sb_addr.(k),
                      sb.sb_width.(k),
                      Bytes.get_int64_le sb.sb_old (8 * k) ))
           end
       | None -> ());
    (* Record the pre-store value for the store buffer. *)
    let store_pending =
      d.Compiled.d_stores && match mem with Some _ -> true | None -> false
    in
    let store_old =
      if store_pending then
        match mem with
        | Some mr -> Memory.read state.State.mem ~addr:mem_addr mr.Compiled.mr_width
        | None -> 0L
      else 0L
    in
    let lat = exec_latency t state d in
    let load_hit_known =
      d.Compiled.d_loads && match mem with Some _ -> true | None -> false
    in
    let load_hit = load_hit_known && Cache.contains t.cache mem_addr in
    (* Branch-prediction bookkeeping around the architectural step (the
       pc after [exec] is the architectural branch target). *)
    (match d.Compiled.d_inst.Instruction.opcode with
    | Opcode.Jcc c ->
        let actual = Flags.eval_cond state.State.flags c in
        let predicted = Predictors.Pht.predict t.pht ~pc in
        let resolve =
          Int.max ft tm.flags_ready
          + t.cfg.Uarch_config.lat.Uarch_config.branch_resolve
        in
        exec t prog state pc;
        if predicted <> actual then begin
          let wrong_pc = if actual then pc + 1 else Compiled.target prog pc in
          run_transient t prog state ~kind:Branch_mispredict ~origin_pc:pc
            ~start_pc:wrong_pc ~squash_time:resolve ~poison:None
        end;
        Predictors.Pht.update t.pht ~pc ~taken:actual
    | Opcode.Ret ->
        let predicted = Predictors.Rsb.pop t.rsb in
        let rsp = State.get_reg state Reg.stack_pointer Width.W64 in
        let stack_hit = Cache.contains t.cache rsp in
        exec t prog state pc;
        let next = state.State.pc in
        let resolve =
          start + Uarch_config.mem_latency t.cfg ~hit:stack_hit
          + t.cfg.Uarch_config.lat.Uarch_config.branch_resolve
        in
        (match predicted with
        | Some p when p <> next ->
            run_transient t prog state ~kind:Return_mispredict ~origin_pc:pc
              ~start_pc:p ~squash_time:resolve ~poison:None
        | Some _ | None -> ());
        (* The committed stack read fills the line RET loaded from: the
           pre-pop RSP, the same slot [stack_hit] looked up. *)
        ignore (Cache.touch t.cache rsp)
    | Opcode.JmpInd ->
        let predicted = Predictors.Btb.predict t.btb ~pc in
        exec t prog state pc;
        let next = state.State.pc in
        let resolve = start + t.cfg.Uarch_config.lat.Uarch_config.branch_resolve in
        (match predicted with
        | Some p when p <> next ->
            run_transient t prog state ~kind:Indirect_mispredict ~origin_pc:pc
              ~start_pc:p ~squash_time:resolve ~poison:None
        | Some _ | None -> ());
        Predictors.Btb.update t.btb ~pc ~target:next
    | Opcode.Call ->
        exec t prog state pc;
        Predictors.Rsb.push t.rsb (pc + 1);
        (* The committed stack write fills the slot CALL pushed to. *)
        ignore
          (Cache.touch t.cache (State.get_reg state Reg.stack_pointer Width.W64))
    | _ -> exec t prog state pc);
    (* Committed memory effects: cache fills and fill-buffer updates. *)
    let mem_lat =
      if load_hit_known then Uarch_config.mem_latency t.cfg ~hit:load_hit else 0
    in
    (match mem with
    | Some mr ->
        ignore (Cache.touch t.cache mem_addr);
        t.fill_buffer <-
          Memory.read state.State.mem ~addr:mem_addr mr.Compiled.mr_width
    | None -> ());
    (* Register the store in the store buffer for bypass detection. *)
    (if store_pending then
       match mem with
       | Some mr ->
           let assist = assist_fired && not d.Compiled.d_loads in
           let ready = if assist then Int.max mem_ready assist_resolve else mem_ready in
           sb_push t.sb ~addr:(Int64.to_int mem_addr) ~width:mr.Compiled.mr_width
             ~old:store_old ~ready ~assist
       | None -> ());
    let completion =
      start + lat + mem_lat
      + if assist_fired then t.cfg.Uarch_config.lat.Uarch_config.assist else 0
    in
    let dsts = d.Compiled.d_dsts in
    for k = 0 to Array.length dsts - 1 do
      tm.reg_ready.(dsts.(k)) <- completion
    done;
    if d.Compiled.d_writes_flags then tm.flags_ready <- completion
  end

(* Execute the timing-plain run [pc, pc + n) of the plan in one loop: the
   same timing the per-instruction path gives each of its steps, with
   what is fixed per test case taken from the plan. Exact because:
   - Bulk port counts equal per-step counts: an architectural
     timing-plain run issues every µop it contains (nothing is squashed
     on the architectural path), so the run adds the plan's suffix-sum
     difference between [pc] and [pc + n] to each port.
   - Dead-flag elision is exact on the architectural path: every flag
     write a [plain_steps] action elides is overwritten by a killer,
     before any observer, inside the same timing-plain run. A run
     executed whole therefore leaves the flag word {!Compiled.raws}
     would, so every step outside this loop (memory, branch, DIV,
     serializing and episode steps, including those that raise or
     start an episode) sees exact flags. A run cut short by [max_steps]
     may stop between an elided write and its killer, so it runs
     [raws].
   - The fetch time advances as a quotient and remainder of [fetch_pos]
     by the fetch width: one division per run instead of one per step.
   A timing-plain step touches no memory, predictor or store-buffer
   entry and cannot raise a fault, so nothing else of the
   per-instruction path applies to it. *)
let run_plain t (prog : Compiled.t) (state : State.t) pc n =
  let plan = prog.Compiled.plan in
  let descs = prog.Compiled.descs in
  let actions =
    if n = plan.Compiled.plain_len.(pc) then plan.Compiled.plain_steps
    else prog.Compiled.raws
  in
  let tm = t.tm and ab = t.ab in
  let ready = tm.reg_ready in
  let fw = t.cfg.Uarch_config.fetch_width in
  let lat_alu = t.cfg.Uarch_config.lat.Uarch_config.alu
  and lat_mul = t.cfg.Uarch_config.lat.Uarch_config.mul in
  let ft = ref (tm.fetch_pos / fw) in
  let slot = ref (tm.fetch_pos - (!ft * fw)) in
  let flags_ready = ref tm.flags_ready in
  for q = pc to pc + n - 1 do
    let d = descs.(q) in
    let start = ref !ft in
    let srcs = d.Compiled.d_srcs in
    for k = 0 to Array.length srcs - 1 do
      let v = ready.(srcs.(k)) in
      if v > !start then start := v
    done;
    if d.Compiled.d_reads_flags && !flags_ready > !start then start := !flags_ready;
    let lat =
      match d.Compiled.d_lat with
      | Compiled.Lat_alu -> lat_alu
      | Compiled.Lat_mul -> lat_mul
      | Compiled.Lat_div | Compiled.Lat_branch ->
          (* not taken: DIV and control flow end a timing-plain run *)
          exec_latency t state d
    in
    let completion = !start + lat in
    actions.(q) state ab;
    let dsts = d.Compiled.d_dsts in
    for k = 0 to Array.length dsts - 1 do
      ready.(dsts.(k)) <- completion
    done;
    if d.Compiled.d_writes_flags then flags_ready := completion;
    if !slot = fw - 1 then begin
      incr ft;
      slot := 0
    end
    else incr slot
  done;
  tm.fetch_pos <- tm.fetch_pos + n;
  tm.flags_ready <- !flags_ready;
  let ports = plan.Compiled.plain_ports and sums = plan.Compiled.port_sums in
  let np = Array.length ports in
  let a = pc * np and b = (pc + n) * np in
  for j = 0 to np - 1 do
    let p = ports.(j) in
    t.port_counts.(p) <- t.port_counts.(p) + sums.(a + j) - sums.(b + j)
  done

let run ?(max_steps = 20000) t (prog : Compiled.t) (state : State.t) =
  t.events <- [];
  for p = 0 to Ports.n_ports - 1 do
    t.port_counts.(p) <- 0
  done;
  let code_len = Compiled.length prog in
  let plain_len = prog.Compiled.plan.Compiled.plain_len in
  let planned = Array.length plain_len > 0 in
  let tm = t.tm in
  tm.fetch_pos <- 0;
  for r = 0 to 15 do
    tm.reg_ready.(r) <- 0
  done;
  tm.flags_ready <- 0;
  t.sb.sb_len <- 0;
  let steps = ref 0 in
  while state.State.pc >= 0 && state.State.pc < code_len && !steps < max_steps do
    let pc = state.State.pc in
    let len = if planned then plain_len.(pc) else 0 in
    if len > 0 then begin
      let n = Int.min len (max_steps - !steps) in
      run_plain t prog state pc n;
      steps := !steps + n
    end
    else begin
      incr steps;
      step t prog state pc
    end
  done
