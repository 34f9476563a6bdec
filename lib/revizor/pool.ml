(* A small futures pool of OCaml 5 domains: the campaign loop's executor
   domains (DESIGN.md §6).

   [size - 1] worker domains block on a task queue; the submitting domain
   takes part through [await], which runs queued tasks while its own
   future is pending. A pool of size 1 spawns nothing and runs every task
   inline in [spawn].

   A future completes exactly once; the result cell is an atomic so the
   fast path of [await] is one load, with the mutex/condition pair only
   for blocking. The completion order is set-then-signal with the waiter
   rechecking under the lock, so a wakeup can never be missed. Task
   exceptions are captured into the cell and re-raised at [await]: a
   failing task cannot kill a worker or strand a waiter. *)

module Metrics = Revizor_obs.Metrics

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

type 'a future = {
  f_result : ('a, exn) result option Atomic.t;
  f_lock : Mutex.t;
  f_done : Condition.t;
}

let m_spawns = Metrics.counter "pool.spawns"
let m_helped = Metrics.counter "pool.helped_tasks"

(* Workers drain the queue before honouring [stopped], so [shutdown]
   lets every queued task finish. Queued tasks are [spawn] wrappers,
   which never let an exception escape. *)
let worker p =
  let rec loop () =
    Mutex.lock p.lock;
    while Queue.is_empty p.queue && not p.stopped do
      Condition.wait p.nonempty p.lock
    done;
    if Queue.is_empty p.queue then Mutex.unlock p.lock
    else begin
      let task = Queue.pop p.queue in
      Mutex.unlock p.lock;
      task ();
      loop ()
    end
  in
  loop ()

let create size =
  let p =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stopped = false;
      workers = [];
    }
  in
  p.workers <- List.init (max 1 size - 1) (fun _ -> Domain.spawn (fun () -> worker p));
  p

let spawn p task =
  let fut =
    {
      f_result = Atomic.make None;
      f_lock = Mutex.create ();
      f_done = Condition.create ();
    }
  in
  let run () =
    let outcome = match task () with v -> Ok v | exception e -> Error e in
    Atomic.set fut.f_result (Some outcome);
    Mutex.lock fut.f_lock;
    Condition.broadcast fut.f_done;
    Mutex.unlock fut.f_lock
  in
  Metrics.incr m_spawns;
  if p.workers = [] then run ()
  else begin
    Mutex.lock p.lock;
    Queue.push run p.queue;
    Condition.signal p.nonempty;
    Mutex.unlock p.lock
  end;
  fut

let rec await p fut =
  match Atomic.get fut.f_result with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None ->
      (* Help instead of idling: the awaiting domain runs queued tasks
         (other futures) while its own is still being computed, so it is
         a full participant, not just a coordinator. *)
      let stolen =
        Mutex.lock p.lock;
        let t = Queue.take_opt p.queue in
        Mutex.unlock p.lock;
        t
      in
      (match stolen with
      | Some t ->
          Metrics.incr m_helped;
          t ()
      | None ->
          Mutex.lock fut.f_lock;
          while Atomic.get fut.f_result = None do
            Condition.wait fut.f_done fut.f_lock
          done;
          Mutex.unlock fut.f_lock);
      await p fut

let shutdown p =
  if p.workers <> [] then begin
    Mutex.lock p.lock;
    p.stopped <- true;
    Condition.broadcast p.nonempty;
    Mutex.unlock p.lock;
    List.iter Domain.join p.workers;
    p.workers <- []
  end
