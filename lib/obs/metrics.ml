type counter = int Atomic.t

type gauge = float Atomic.t

let n_buckets = 64

type histogram = {
  buckets : int Atomic.t array;  (* length n_buckets *)
  count : int Atomic.t;
  sum : int Atomic.t;
}

(* The registry itself is only locked on registration and snapshot;
   metric updates touch their own Atomic cells. *)
let lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let registered tbl name make =
  Mutex.lock lock;
  let v =
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None ->
        let v = make () in
        Hashtbl.replace tbl name v;
        v
  in
  Mutex.unlock lock;
  v

let counter name = registered counters name (fun () -> Atomic.make 0)

let incr c = Atomic.incr c

let add c n = ignore (Atomic.fetch_and_add c n)

let value c = Atomic.get c

let gauge name = registered gauges name (fun () -> Atomic.make 0.)
let set_gauge g v = Atomic.set g v
let gauge_value g = Atomic.get g

let histogram name =
  registered histograms name (fun () ->
      {
        buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
        count = Atomic.make 0;
        sum = Atomic.make 0;
      })

let bucket_of v =
  if v <= 0 then 0
  else begin
    (* number of significant bits: 1 -> 1, 2..3 -> 2, ... *)
    let b = ref 0 and v = ref v in
    while !v <> 0 do
      Stdlib.incr b;
      v := !v lsr 1
    done;
    !b
  end

let bucket_lower b = if b <= 0 then 0 else 1 lsl (b - 1)

let observe h v =
  Atomic.incr h.buckets.(bucket_of v);
  Atomic.incr h.count;
  ignore (Atomic.fetch_and_add h.sum (max 0 v))

let observe_n h v n =
  if n > 0 then begin
    ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) n);
    ignore (Atomic.fetch_and_add h.count n);
    ignore (Atomic.fetch_and_add h.sum (n * max 0 v))
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type hist_summary = { h_count : int; h_sum : int; h_buckets : (int * int) list }

type summary = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_summary) list;
}

let sorted_bindings tbl read =
  Hashtbl.fold (fun name v acc -> (name, read v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let hist_read h =
  let buckets = ref [] in
  for b = n_buckets - 1 downto 0 do
    let c = Atomic.get h.buckets.(b) in
    if c > 0 then buckets := (bucket_lower b, c) :: !buckets
  done;
  { h_count = Atomic.get h.count; h_sum = Atomic.get h.sum; h_buckets = !buckets }

let snapshot () =
  Mutex.lock lock;
  let s =
    {
      counters = sorted_bindings counters Atomic.get;
      gauges = sorted_bindings gauges Atomic.get;
      histograms = sorted_bindings histograms hist_read;
    }
  in
  Mutex.unlock lock;
  s

let reset () =
  Mutex.lock lock;
  Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
  Hashtbl.iter (fun _ g -> Atomic.set g 0.) gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.iter (fun b -> Atomic.set b 0) h.buckets;
      Atomic.set h.count 0;
      Atomic.set h.sum 0)
    histograms;
  Mutex.unlock lock

let to_json s =
  let hist (name, h) =
    ( name,
      Json.Obj
        [
          ("count", Json.Int h.h_count);
          ("sum", Json.Int h.h_sum);
          ( "buckets",
            Json.Obj
              (List.map
                 (fun (lower, c) -> (string_of_int lower, Json.Int c))
                 h.h_buckets) );
        ] )
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.counters));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) s.gauges));
      ("histograms", Json.Obj (List.map hist s.histograms));
    ]

(* ------------------------------------------------------------------ *)
(* Stage breakdown                                                     *)
(* ------------------------------------------------------------------ *)

type stage = { st_name : string; st_calls : int; st_total_ns : int }

let stage_breakdown s =
  let prefix = "stage." and suffix = ".ns" in
  let stage_of name =
    let pl = String.length prefix and sl = String.length suffix in
    let l = String.length name in
    if
      l > pl + sl
      && String.sub name 0 pl = prefix
      && String.sub name (l - sl) sl = suffix
    then Some (String.sub name pl (l - pl - sl))
    else None
  in
  List.filter_map
    (fun (name, total) ->
      match stage_of name with
      | None -> None
      | Some st ->
          let calls =
            Option.value
              (List.assoc_opt (prefix ^ st ^ ".calls") s.counters)
              ~default:0
          in
          Some { st_name = st; st_calls = calls; st_total_ns = total })
    s.counters
  |> List.sort (fun a b -> compare b.st_total_ns a.st_total_ns)
