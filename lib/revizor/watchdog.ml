(* Per-test-case watchdog (DESIGN.md §8).

   A pathological generated program — e.g. a dense divider chain under a
   nested contract, whose speculative re-explorations multiply — must not
   stall a round: the model stage runs under a step budget ("fuel"), and
   blowing it raises [Pathological], which the fuzz loop records as a
   skipped test case instead of hanging.

   The step budget is deterministic (a pure function of the program and
   contract), so it is on by default with a ceiling far above anything a
   legitimate test case reaches, and a campaign that trips it is still
   bit-reproducible. *)

exception Pathological of string

type t = {
  max_model_steps : int;
      (* fuel per contract trace, counting every walked instruction
         including speculative re-explorations *)
}

let default = { max_model_steps = 50_000_000 }

let m_skipped = Revizor_obs.Metrics.counter "watchdog.skipped_pathological"

(* Mutable per-trace budget handed to the model's walk loop. *)
type fuel = { mutable steps_left : int }

let start t = { steps_left = t.max_model_steps }

let tick f =
  let left = f.steps_left - 1 in
  f.steps_left <- left;
  (* [max_model_steps = n] admits exactly [n] ticks; the (n+1)-th trips. *)
  if left < 0 then raise (Pathological "model step budget exhausted")
