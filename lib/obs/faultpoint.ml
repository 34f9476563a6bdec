(* Deterministic, seeded fault injection (DESIGN.md §8).

   A fault point is a named site in the pipeline (model stage, executor
   measurement loop, artifact writers, fleet workers) that can be armed to
   fail on a seeded schedule. The firing decision for the k-th hit of a
   point is a pure function of (campaign fault seed, point name, k): a
   splitmix64 hash of the triple compared against the configured rate.
   This makes schedules reproducible under a fault seed without any
   cross-point ordering requirement — concurrent domains hitting
   different points never perturb each other's streams, and a point's own
   stream depends only on how many times it was hit.

   Discipline mirrors [Telemetry]: disabled (the default) costs one
   atomic load per hit and allocates nothing, so production campaigns pay
   nothing for the machinery. *)

exception Injected of string

type cfg = {
  rate : float;  (* firing probability per hit, in [0,1] *)
  max_fires : int;  (* stop firing after this many fires; 0 = unlimited *)
}

type point = {
  name : string;
  hits : int Atomic.t;
  fires : int Atomic.t;
  fired_total : Metrics.counter;
  armed : cfg option Atomic.t;
}

let lock = Mutex.create ()
let registry : (string, point) Hashtbl.t = Hashtbl.create 16

(* Spec retained so points registered after [enable] still get armed. *)
let active : (int64 * (string * cfg) list) option ref = ref None

let point name =
  Mutex.lock lock;
  let p =
    match Hashtbl.find_opt registry name with
    | Some p -> p
    | None ->
        let p =
          {
            name;
            hits = Atomic.make 0;
            fires = Atomic.make 0;
            fired_total = Metrics.counter ("fault." ^ name ^ ".fired");
            armed = Atomic.make None;
          }
        in
        (match !active with
        | Some (_, spec) -> Atomic.set p.armed (List.assoc_opt name spec)
        | None -> ());
        Hashtbl.replace registry name p;
        p
  in
  Mutex.unlock lock;
  p

let seed_ref = ref 0L

let enable ~seed spec =
  Mutex.lock lock;
  active := Some (seed, spec);
  seed_ref := seed;
  Hashtbl.iter
    (fun name p ->
      Atomic.set p.hits 0;
      Atomic.set p.fires 0;
      Atomic.set p.armed (List.assoc_opt name spec))
    registry;
  Mutex.unlock lock

let disable () =
  Mutex.lock lock;
  active := None;
  Hashtbl.iter (fun _ p -> Atomic.set p.armed None) registry;
  Mutex.unlock lock

let enabled () = !active <> None

(* Per-domain schedule context. Without one (the pre-PR7 behavior, and
   still the behavior of every standalone tool), a point's hit index is
   its process-global atomic counter — fine sequentially, but dependent
   on domain interleaving once test cases run concurrently. The fuzz
   loop therefore scopes each test case with [set_context ~salt]: the
   hit index becomes local to (context, point) and the salt — derived
   from (campaign fault seed, test case number) — is mixed into the
   draw, so a test case's fault schedule is a pure function of the fault
   seed and its own number, identical for any executor domain count.
   Stored in domain-local storage so concurrent domains, each fuzzing
   its own test case, never share a context. *)
type ctx = { c_salt : int64; c_hits : (string, int ref) Hashtbl.t }

let ctx_key : ctx option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let set_context ~salt =
  Domain.DLS.get ctx_key
  := Some { c_salt = Hash.splitmix64 salt; c_hits = Hashtbl.create 8 }

let clear_context () = Domain.DLS.get ctx_key := None

(* The k-th hit's draw: hash(seed [, context salt], name, k). With no
   context the salt is zero and the expression reduces bit-for-bit to
   the historical hash(seed, name, k). *)
let draw p ~salt k =
  Hash.splitmix64
    (Int64.logxor
       (Int64.logxor (Int64.add !seed_ref (Int64.of_int k)) salt)
       (Hash.fnv1a p.name))

let should_fire p =
  match Atomic.get p.armed with
  | None -> false
  | Some cfg ->
      let salt, k =
        match !(Domain.DLS.get ctx_key) with
        | None -> (0L, Atomic.fetch_and_add p.hits 1)
        | Some c ->
            (* Global counter still advances so [hits]/[fired] reporting
               stays meaningful; the schedule uses the context-local
               index. *)
            ignore (Atomic.fetch_and_add p.hits 1);
            let r =
              match Hashtbl.find_opt c.c_hits p.name with
              | Some r -> r
              | None ->
                  let r = ref 0 in
                  Hashtbl.replace c.c_hits p.name r;
                  r
            in
            let k = !r in
            incr r;
            (c.c_salt, k)
      in
      if cfg.max_fires > 0 && Atomic.get p.fires >= cfg.max_fires then false
      else if Hash.uniform (draw p ~salt k) < cfg.rate then begin
        Atomic.incr p.fires;
        Metrics.incr p.fired_total;
        true
      end
      else false

let fire p = if should_fire p then raise (Injected p.name)

let fired p = Atomic.get p.fires
let hits p = Atomic.get p.hits

(* --- spec parsing ----------------------------------------------------- *)

(* "name:rate" entries separated by commas; [name] must be a registered
   point, so a misspelled one is refused instead of arming nothing. *)
let parse_entry s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "fault spec %S: expected name:rate" s)
  | Some i -> (
      let name = String.sub s 0 i in
      let rate = String.sub s (i + 1) (String.length s - i - 1) in
      if not (Mutex.protect lock (fun () -> Hashtbl.mem registry name)) then
        Error (Printf.sprintf "fault spec %S: unknown fault point %S" s name)
      else
        match float_of_string_opt rate with
        | Some rate when rate >= 0. && rate <= 1. ->
            Ok (name, { rate; max_fires = 0 })
        | _ ->
            Error
              (Printf.sprintf "fault spec %S: rate must be a number in [0,1]" s))

let parse_spec s =
  let entries =
    List.filter (fun e -> String.trim e <> "") (String.split_on_char ',' s)
  in
  if entries = [] then Error "empty fault spec"
  else
    List.fold_left
      (fun acc e ->
        match (acc, parse_entry (String.trim e)) with
        | Error _, _ -> acc
        | _, Error e -> Error e
        | Ok l, Ok kv -> Ok (l @ [ kv ]))
      (Ok []) entries
