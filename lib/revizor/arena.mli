open Revizor_emu

(** Reusable pool of input template states.

    A fuzzing campaign materializes tens of template states per test case
    ({!Input.templates}); this arena refills the same pool of states
    instead, which is bit-identical to fresh allocation because
    {!Input.apply} rewrites every field a previous fill could have
    changed and every run on a template is undone (the model and the
    executor hand each template back exactly as it came in).

    Not thread-safe: one arena per campaign loop, and the returned
    templates are run on in place, so one domain at a time. *)

type t

val create : unit -> t

val templates : ?plan:int array -> t -> Input.t list -> State.t array
(** Materialize the inputs into pooled template states. The returned
    array is owned by the arena and valid until the next [templates]
    call; callers must not mutate the states.

    [plan] (from {!Input.fill_plan} for the program these templates will
    run) restricts the data fill to the words that program can read;
    unlisted words keep a previous test case's values, which the plan
    proves unobservable. Omit it to fill the whole sandbox. The plan's
    parity rows ({!Input.set_plan}) are built once per call, in the
    arena, for the widest entropy among the inputs, so a batch may mix
    entropies.
    @raise Invalid_argument if [plan] is not strictly ascending data
    word indices, before any template is touched. *)
