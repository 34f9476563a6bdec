(** Per-test-case watchdog: a step budget for the model stage, so a
    pathological generated program (worst-case nesting blowup, divider
    chains) is skipped and recorded rather than stalling a campaign
    round (DESIGN.md §8).

    The budget counts every walked instruction, including nested
    speculative re-explorations, and is deterministic — it is on by
    default with a generous ceiling and does not perturb results below
    it. *)

exception Pathological of string
(** Raised from inside the model walk when the budget is exhausted; the
    fuzz loop catches it and counts the test case as
    [skipped_pathological]. *)

type t = { max_model_steps : int  (** fuel per contract trace *) }

val default : t
(** 50M steps per contract trace. *)

val m_skipped : Revizor_obs.Metrics.counter
(** The [watchdog.skipped_pathological] registry counter. *)

(** {1 Model-side plumbing} *)

type fuel

val start : t -> fuel
(** Begin one contract trace's budget. *)

val tick : fuel -> unit
(** Consume one step; raises {!Pathological} on exhaustion. *)
