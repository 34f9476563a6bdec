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

type pending_store = {
  ps_addr : int64;
  ps_width : Width.t;
  ps_old : int64;  (** memory value before the store executed *)
  ps_ready : int;  (** cycle at which the store's address resolves *)
  ps_assist : bool;
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
}

let create cfg =
  {
    cfg;
    cache = Cache.create ();
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
  !ok && ((not fp.fp_rsb) || Predictors.Rsb.entries t.rsb = s.sn_rsb)

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
  let r i = if i < 0 then 0 else tm.reg_ready.(i) in
  max (r mr.Compiled.mr_base) (r mr.Compiled.mr_index)
  + t.cfg.Uarch_config.lat.Uarch_config.agu

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

let overlaps a1 w1 a2 w2 =
  let open Int64 in
  let e1 = add a1 (of_int (Width.bytes w1)) and e2 = add a2 (of_int (Width.bytes w2)) in
  compare a1 e2 < 0 && compare a2 e1 < 0

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let run ?(max_steps = 20000) t prog (state : State.t) =
  t.events <- [];
  Array.fill t.port_counts 0 Ports.n_ports 0;
  let code_len = Compiled.length prog in
  let descs = prog.Compiled.descs in
  let raws = prog.Compiled.raws in
  let ab = t.ab in
  (* One raw step of the instruction at [spc]: architectural effects on
     the state, memory accesses into the shared buffer. *)
  let exec spc =
    Compiled.abuf_clear ab;
    raws.(spc) state ab
  in
  let tm = t.tm in
  tm.fetch_pos <- 0;
  Array.fill tm.reg_ready 0 16 0;
  tm.flags_ready <- 0;
  let pending : pending_store list ref = ref [] in
  let steps = ref 0 in

  (* Run a transient episode: execute from [start_pc] until the squash
     time, the ROB fills, a serializing instruction, a fault, or the end
     of the program. Architectural effects are rolled back; cache touches
     of accesses whose issue time beats the squash remain — that gating is
     what creates the latency races of §6.3. [poison] optionally rewrites
     one memory location first (stale-value forwarding). *)
  let run_transient ~kind ~origin_pc ~start_pc ~squash_time ~poison =
    if start_pc >= 0 && start_pc <= code_len then begin
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
      let touched = ref [] in
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
           let start = max ft (src_ready tm d) in
           if start < squash_time then count_ports t d;
           let lat = exec_latency t state d in
           exec spc;
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
                 touched := Cache.set_of_addr t.cache addr :: !touched;
                 t.fill_buffer <- ab.Compiled.ab_value.(k)
               end;
               incr loads;
               if not is_store then
                 mem_lat := max !mem_lat (Uarch_config.mem_latency t.cfg ~hit)
             end
             else
               (* the access never issued: dependents stay unready *)
               mem_lat := max !mem_lat (squash_time - start + 1)
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
        {
          kind;
          origin_pc;
          transient_loads = !loads;
          touched_sets = List.sort_uniq Stdlib.compare !touched;
        }
        :: t.events
    end
  in

  while state.State.pc >= 0 && state.State.pc < code_len && !steps < max_steps do
    incr steps;
    let pc = state.State.pc in
    let d = descs.(pc) in
    let ft = fetch_time t tm in
    tm.fetch_pos <- tm.fetch_pos + 1;
    if d.Compiled.d_serializing then begin
      (* Full barrier: every earlier instruction completes, every pending
         store resolves, the front end stalls until then. *)
      let horizon = Array.fold_left max tm.flags_ready tm.reg_ready in
      Array.fill tm.reg_ready 0 16 horizon;
      tm.flags_ready <- horizon;
      tm.fetch_pos <- max tm.fetch_pos (horizon * t.cfg.Uarch_config.fetch_width);
      pending := [];
      state.State.pc <- pc + 1
    end
    else begin
      let start = max ft (src_ready tm d) in
      count_ports t d;
      (match !pending with
      | [] -> ()
      | _ -> pending := List.filter (fun ps -> ps.ps_ready > ft) !pending);
      (* Memory-operand resolution, flattened from the previous
         per-instruction [Some (addr, width, ready)] tuple into plain
         locals ([d_mem] carries the shape; [mem_addr]/[mem_ready] are
         only meaningful when it is [Some]). *)
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
             run_transient ~kind:Assist_load_forward ~origin_pc:pc ~start_pc:pc
               ~squash_time:assist_resolve
               ~poison:(Some (mem_addr, mr.Compiled.mr_width, tv))
         | None -> ());
      (* Speculative store bypass: a load issuing before an older store's
         address has resolved transiently reads the stale memory value. *)
      (if d.Compiled.d_loads then
         match mem with
         | Some mr ->
             let candidate =
               List.find_opt
                 (fun ps ->
                   ps.ps_ready > start
                   && overlaps mem_addr mr.Compiled.mr_width ps.ps_addr
                        ps.ps_width
                   &&
                   if ps.ps_assist then t.cfg.Uarch_config.assist_forwarding_leak
                   else not t.cfg.Uarch_config.v4_patch)
                 !pending
             in
             (match candidate with
             | Some ps ->
                 let kind =
                   if ps.ps_assist then Assist_store_forward else Store_bypass
                 in
                 run_transient ~kind ~origin_pc:pc ~start_pc:pc
                   ~squash_time:ps.ps_ready
                   ~poison:(Some (ps.ps_addr, ps.ps_width, ps.ps_old))
             | None -> ())
         | None -> ());
      (* Record the pre-store value for the store buffer. *)
      let store_pending =
        d.Compiled.d_stores
        && match mem with Some _ -> true | None -> false
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
        d.Compiled.d_loads
        && match mem with Some _ -> true | None -> false
      in
      let load_hit = load_hit_known && Cache.contains t.cache mem_addr in
      (* Branch-prediction bookkeeping around the architectural step (the
         pc after [exec] is the architectural branch target). *)
      (match d.Compiled.d_inst.Instruction.opcode with
      | Opcode.Jcc c ->
          let actual = Flags.eval_cond state.State.flags c in
          let predicted = Predictors.Pht.predict t.pht ~pc in
          let resolve =
            max ft tm.flags_ready + t.cfg.Uarch_config.lat.Uarch_config.branch_resolve
          in
          exec pc;
          if predicted <> actual then begin
            let wrong_pc = if actual then pc + 1 else Compiled.target prog pc in
            run_transient ~kind:Branch_mispredict ~origin_pc:pc ~start_pc:wrong_pc
              ~squash_time:resolve ~poison:None
          end;
          Predictors.Pht.update t.pht ~pc ~taken:actual
      | Opcode.Ret ->
          let predicted = Predictors.Rsb.pop t.rsb in
          let rsp = State.get_reg state Reg.stack_pointer Width.W64 in
          let stack_hit = Cache.contains t.cache rsp in
          exec pc;
          let next = state.State.pc in
          let resolve =
            start + Uarch_config.mem_latency t.cfg ~hit:stack_hit
            + t.cfg.Uarch_config.lat.Uarch_config.branch_resolve
          in
          (match predicted with
          | Some p when p <> next ->
              run_transient ~kind:Return_mispredict ~origin_pc:pc ~start_pc:p
                ~squash_time:resolve ~poison:None
          | Some _ | None -> ())
      | Opcode.JmpInd ->
          let predicted = Predictors.Btb.predict t.btb ~pc in
          exec pc;
          let next = state.State.pc in
          let resolve =
            start + t.cfg.Uarch_config.lat.Uarch_config.branch_resolve
          in
          (match predicted with
          | Some p when p <> next ->
              run_transient ~kind:Indirect_mispredict ~origin_pc:pc ~start_pc:p
                ~squash_time:resolve ~poison:None
          | Some _ | None -> ());
          Predictors.Btb.update t.btb ~pc ~target:next
      | Opcode.Call ->
          exec pc;
          Predictors.Rsb.push t.rsb (pc + 1)
      | _ -> exec pc);
      (* Committed memory effects: cache fills and fill-buffer updates. *)
      let mem_lat = ref 0 in
      if load_hit_known then
        mem_lat := Uarch_config.mem_latency t.cfg ~hit:load_hit;
      (match mem with
      | Some mr ->
          ignore (Cache.touch t.cache mem_addr);
          t.fill_buffer <-
            Memory.read state.State.mem ~addr:mem_addr mr.Compiled.mr_width
      | None -> ());
      (* Implicit stack accesses of CALL/RET also fill the cache. *)
      (match d.Compiled.d_inst.Instruction.opcode with
      | Opcode.Call | Opcode.Ret ->
          let rsp = State.get_reg state Reg.stack_pointer Width.W64 in
          ignore (Cache.touch t.cache rsp)
      | _ -> ());
      (* Register the store in the store buffer for bypass detection. *)
      (if store_pending then
         match mem with
         | Some mr ->
             let ready =
               if assist_fired && not d.Compiled.d_loads then
                 max mem_ready assist_resolve
               else mem_ready
             in
             let ps_assist = assist_fired && not d.Compiled.d_loads in
             pending :=
               {
                 ps_addr = mem_addr;
                 ps_width = mr.Compiled.mr_width;
                 ps_old = store_old;
                 ps_ready = ready;
                 ps_assist;
               }
               :: !pending
         | None -> ());
      let completion = start + lat + !mem_lat + (if assist_fired then t.cfg.Uarch_config.lat.Uarch_config.assist else 0) in
      let dsts = d.Compiled.d_dsts in
      for k = 0 to Array.length dsts - 1 do
        tm.reg_ready.(dsts.(k)) <- completion
      done;
      if d.Compiled.d_writes_flags then tm.flags_ready <- completion
    end
  done
