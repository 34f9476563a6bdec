type latencies = {
  alu : int;
  mul : int;
  load_hit : int;
  load_miss : int;
  agu : int;
  branch_resolve : int;
  div_base : int;
  div_per_nibble : int;
  assist : int;
}

type t = {
  name : string;
  rob_size : int;
  fetch_width : int;
  pht_size : int;
  btb_size : int;
  rsb_depth : int;
  v4_patch : bool;
  mds_patch : bool;
  assist_forwarding_leak : bool;
  speculative_store_eviction : bool;
  lat : latencies;
}

let default_latencies =
  {
    alu = 1;
    mul = 3;
    load_hit = 4;
    load_miss = 50;
    agu = 1;
    branch_resolve = 1;
    div_base = 10;
    div_per_nibble = 4;
    assist = 30;
  }

let skylake ~v4_patch =
  {
    name = (if v4_patch then "Skylake (V4 patch on)" else "Skylake (V4 patch off)");
    rob_size = 224;
    fetch_width = 4;
    pht_size = 512;
    btb_size = 256;
    rsb_depth = 16;
    v4_patch;
    mds_patch = false;
    assist_forwarding_leak = false;
    speculative_store_eviction = false;
    lat = default_latencies;
  }

let coffee_lake =
  {
    name = "Coffee Lake (MDS patch, V4 patch on)";
    rob_size = 224;
    fetch_width = 4;
    pht_size = 512;
    btb_size = 256;
    rsb_depth = 16;
    v4_patch = true;
    mds_patch = true;
    assist_forwarding_leak = true;
    speculative_store_eviction = true;
    lat = default_latencies;
  }

let nibbles x =
  let n = ref 0 and x = ref x in
  while !x <> 0 do
    x := !x lsr 4;
    incr n
  done;
  !n

(* Counted on the dividend's 32-bit halves as native ints, and inline,
   so a division step boxes no [int64]: a recursion over the [int64]
   boxed it once per nibble. *)
let[@inline] div_latency t ~dividend =
  let hi = Int64.to_int (Int64.shift_right_logical dividend 32) in
  let significant =
    if hi <> 0 then 8 + nibbles hi else nibbles (Int64.to_int dividend land 0xFFFF_FFFF)
  in
  t.lat.div_base + (t.lat.div_per_nibble * significant)

let mem_latency t ~hit = if hit then t.lat.load_hit else t.lat.load_miss
