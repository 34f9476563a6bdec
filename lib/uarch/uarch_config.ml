type t = {
  name : string;
  v4_patch : bool;
  mds_patch : bool;
  assist_forwarding_leak : bool;
  speculative_store_eviction : bool;
}

let skylake ~v4_patch =
  {
    name = (if v4_patch then "Skylake (V4 patch on)" else "Skylake (V4 patch off)");
    v4_patch;
    mds_patch = false;
    assist_forwarding_leak = false;
    speculative_store_eviction = false;
  }

let coffee_lake =
  {
    name = "Coffee Lake (MDS patch, V4 patch on)";
    v4_patch = true;
    mds_patch = true;
    assist_forwarding_leak = true;
    speculative_store_eviction = true;
  }

let rob_size = 224
let fetch_width = 4
let alu_latency = 1
let mul_latency = 3
let agu_latency = 1
let branch_latency = 1
let assist_latency = 30
let div_base_latency = 10
let div_nibble_latency = 4
let load_hit_latency = 4
let load_miss_latency = 50

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
let[@inline] div_latency ~dividend =
  let hi = Int64.to_int (Int64.shift_right_logical dividend 32) in
  let significant =
    if hi <> 0 then 8 + nibbles hi else nibbles (Int64.to_int dividend land 0xFFFF_FFFF)
  in
  div_base_latency + (div_nibble_latency * significant)

let mem_latency ~hit = if hit then load_hit_latency else load_miss_latency
