open Revizor_emu

type t = {
  n_sets : int;
  ways : int;
  (* [lines.(set).(way)] is a line tag; [lru.(set).(way)] is the recency
     rank (0 = most recent). Empty ways hold [empty_tag]. Tags are native
     ints (sandbox addresses are far below 2^62), so the way-scan compares
     unboxed ints instead of structurally comparing boxed Int64 values —
     this loop runs ~1k times per Prime+Probe observation. *)
  lines : int array array;
  lru : int array array;
  (* Dirty-set tracking for Prime+Probe: once a full {!prime} has put
     every set into its canonical primed state ([primed]), only the sets
     mutated since then (recorded in [dirty.(0..n_dirty-1)], deduplicated
     by [dirty_mark]) can deviate from it. Re-priming and probing then
     visit just those sets instead of the whole cache — the bracketing
     prime/probe pair around every single hardware run is the executor's
     hottest loop, and a short test program touches a handful of sets. *)
  dirty : int array;
  dirty_mark : Bytes.t;
  mutable n_dirty : int;
  mutable primed : bool;
}

let empty_tag = min_int
let attacker_tag way = -1 - way

(* Set indices are taken with a mask ({!set_of}), which is the modulo
   only for a power-of-two set count. *)
let create ?(sets = Layout.l1d_sets) ?(ways = Layout.l1d_ways) () =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: sets must be a positive power of two";
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  {
    n_sets = sets;
    ways;
    lines = Array.init sets (fun _ -> Array.make ways empty_tag);
    lru = Array.init sets (fun _ -> Array.init ways (fun w -> w));
    dirty = Array.make sets 0;
    dirty_mark = Bytes.make sets '\000';
    n_dirty = 0;
    primed = false;
  }

let sets t = t.n_sets

(* Record that [set] may now deviate from the canonical primed state.
   Only meaningful (and only paid for) inside a primed window; outside
   one, [primed = false] forces the next prime/probe to do a full pass
   anyway. *)
let[@inline] mark_dirty t set =
  if t.primed && Bytes.unsafe_get t.dirty_mark set = '\000' then begin
    Bytes.unsafe_set t.dirty_mark set '\001';
    t.dirty.(t.n_dirty) <- set;
    t.n_dirty <- t.n_dirty + 1
  end

(* Addresses are native ints here: the simulator's accesses are sandbox
   addresses, and an [int64] argument to a call that is not inlined
   would be boxed at every access. [touch] and [contains] take the
   [int64] of the interface and are inlined. *)
let[@inline] line_of a = a / Layout.cache_line
let[@inline] set_of t a = line_of a land (t.n_sets - 1)

(* A loop, not a local recursive function: the closure such a function
   captures would be allocated on every lookup, and every simulated
   access makes one. *)
let find t ~set a =
  let tag = line_of a and ways = t.lines.(set) in
  let w = ref 0 in
  while !w < t.ways && ways.(!w) <> tag do
    incr w
  done;
  if !w < t.ways then !w else -1

let promote t set way =
  let lru = t.lru.(set) in
  let old_rank = lru.(way) in
  for w = 0 to t.ways - 1 do
    if lru.(w) < old_rank then lru.(w) <- lru.(w) + 1
  done;
  lru.(way) <- 0

let victim_way t set =
  let lru = t.lru.(set) in
  let worst = ref 0 in
  for w = 1 to t.ways - 1 do
    if lru.(w) > lru.(!worst) then worst := w
  done;
  !worst

let touch_found t ~set a ~way =
  mark_dirty t set;
  if way >= 0 then promote t set way
  else begin
    let w = victim_way t set in
    t.lines.(set).(w) <- line_of a;
    promote t set w
  end

let[@inline] touch t addr =
  let a = Int64.to_int addr in
  let set = set_of t a in
  let way = find t ~set a in
  touch_found t ~set a ~way;
  if way >= 0 then `Hit else `Miss

let[@inline] contains t addr =
  let a = Int64.to_int addr in
  find t ~set:(set_of t a) a >= 0

let flush_line t addr =
  let a = Int64.to_int addr in
  let set = set_of t a in
  match find t ~set a with
  | -1 -> ()
  | w ->
      mark_dirty t set;
      t.lines.(set).(w) <- empty_tag

let flush_all t =
  Array.iter (fun set -> Array.fill set 0 t.ways empty_tag) t.lines;
  (* No set is canonical any more; the next prime does a full pass. *)
  t.primed <- false;
  Bytes.fill t.dirty_mark 0 t.n_sets '\000';
  t.n_dirty <- 0

(* Priming touches attacker tags 0..ways-1 in order. Whatever the prior
   contents, the set ends up holding exactly the attacker tags with tag w
   at recency rank [ways-1-w] (victims of the pass are always untouched
   ways, so a touched attacker line is never re-evicted). Since every
   cache operation depends only on the tag->rank mapping — never on which
   physical way holds a tag — we write that canonical end state directly
   instead of simulating the ~sets*ways touches: prime/probe bracket every
   single hardware measurement, making this the executor's hottest loop. *)
let prime_set t set =
  let lines = t.lines.(set) and lru = t.lru.(set) in
  for w = 0 to t.ways - 1 do
    lines.(w) <- attacker_tag w;
    lru.(w) <- t.ways - 1 - w
  done

let prime t =
  if t.primed then begin
    (* Everything outside the dirty list is already canonical. *)
    for k = 0 to t.n_dirty - 1 do
      let set = t.dirty.(k) in
      Bytes.unsafe_set t.dirty_mark set '\000';
      prime_set t set
    done;
    t.n_dirty <- 0
  end
  else begin
    for set = 0 to t.n_sets - 1 do
      prime_set t set
    done;
    Bytes.fill t.dirty_mark 0 t.n_sets '\000';
    t.n_dirty <- 0;
    t.primed <- true
  end

(* The probe pass re-touches every attacker tag; at least one misses iff
   some way no longer holds an attacker line (a victim access evicted it).
   Equivalent single scan, followed by the canonical re-prime the real
   probe loop leaves behind. *)
let probe_set t set =
  let lines = t.lines.(set) in
  let evicted = ref false in
  for w = 0 to t.ways - 1 do
    let tag = lines.(w) in
    (* attacker tags are -1 .. -ways; anything else is a victim line or an
       empty way *)
    if tag >= 0 || tag < -t.ways then evicted := true
  done;
  prime_set t set;
  !evicted

let probe = probe_set

let probe_evicted t f =
  if t.primed then begin
    (* Only dirty sets can deviate from the canonical primed state, so
       the full-cache probe reduces to probing those; re-priming them
       restores the invariant. *)
    for k = 0 to t.n_dirty - 1 do
      let set = t.dirty.(k) in
      Bytes.unsafe_set t.dirty_mark set '\000';
      if probe_set t set then f set
    done;
    t.n_dirty <- 0
  end
  else
    for set = 0 to t.n_sets - 1 do
      if probe_set t set then f set
    done

let copy t =
  {
    t with
    lines = Array.map Array.copy t.lines;
    lru = Array.map Array.copy t.lru;
    dirty = Array.copy t.dirty;
    dirty_mark = Bytes.copy t.dirty_mark;
  }
