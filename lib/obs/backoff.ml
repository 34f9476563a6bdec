(* Capped exponential backoff with deterministic, seeded full jitter.

   One policy shared by every retry site that must not stampede —
   [Atomic_file.write]'s transient-I/O retries and the fleet
   orchestrator's shard re-adoption schedule both draw their delays
   here. The delay for attempt [k] is uniform in
   [0, min(cap_ms, base_ms * 2^k)] ("full jitter"), and the draw is a
   pure function of (key, attempt): retry schedules are reproducible
   under a seed, which is what lets the fleet chaos tests replay a
   fault storm bit-for-bit. *)

type policy = { base_ms : float; cap_ms : float }

let default = { base_ms = 1.; cap_ms = 16. }

let delay_ms policy ~key ~attempt =
  let attempt = max 0 attempt in
  (* 2^attempt without overflow: past the cap the ceiling saturates. *)
  let ceiling =
    if attempt >= 60 then policy.cap_ms
    else Float.min policy.cap_ms (policy.base_ms *. Float.of_int (1 lsl attempt))
  in
  if ceiling <= 0. then 0.
  else
    let h =
      Hash.splitmix64
        (Int64.add key (Int64.mul (Int64.of_int (attempt + 1)) 0x9E3779B97F4A7C15L))
    in
    Hash.uniform h *. ceiling

let sleep_ms ms = if ms > 0. then Unix.sleepf (ms /. 1000.)
