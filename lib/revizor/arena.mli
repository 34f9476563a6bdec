open Revizor_emu

(** Reusable pool of input template states.

    A fuzzing campaign materializes tens of template states per test case
    ({!Input.templates}); this arena refills the same pool of states
    instead, which is bit-identical to fresh allocation because
    {!Input.apply} rewrites every register and flag a previous fill
    could have changed and leaves every data word pending until its
    first access (see {!Revizor_emu.Memory.defer}), and every run on a
    template is undone.

    Not thread-safe: one arena per campaign loop, and the returned
    templates are run on in place, so one domain at a time. *)

type t

val create : unit -> t

val templates : ?plan:int array -> t -> Input.t list -> State.t array
(** Materialize the inputs into pooled template states. The returned
    array is owned by the arena and valid until the next [templates]
    call; callers must not mutate the states. Allocates nothing per
    input once the pool has grown to the batch's size, at entropy up to
    16.

    [plan] is ignored: every data word is filled on its first access.
    perfbench still passes one ({!Input.fill_plan}). *)

val count_fills : State.t array -> unit
(** Add the data words the templates filled on first access since they
    were materialized to the registry counter [arena.words_filled]. Once
    per test case, after its last run: one atomic add, never one per
    word. *)
