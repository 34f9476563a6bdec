(** A small futures pool of OCaml 5 domains: the whole-test-case pool of
    the campaign loop ({!Fuzzer.config}[.executor_domains]).

    A pool of size [n] spawns [n - 1] worker domains; the submitting
    domain takes part by running queued tasks while it awaits, so
    [create 1] spawns nothing and runs every task inline. Pools are meant
    to live for a whole campaign; call {!shutdown} when done. *)

type t

val create : int -> t
(** [create n] starts a pool of parallelism [n] (clamped to at least 1),
    spawning [n - 1] worker domains. *)

type 'a future

val spawn : t -> (unit -> 'a) -> 'a future
(** Queue [task] for a pool domain and return its future. On a pool of
    size 1 the task runs inline before [spawn] returns. A task exception
    is captured and re-raised by {!await}, never killing a worker. *)

val await : t -> 'a future -> 'a
(** Block until the future completes and return its value (re-raising
    the task's exception). While the result is pending, the awaiting
    domain {e helps}: it runs other queued tasks instead of idling.
    Awaiting the same future twice returns the same result. *)

val shutdown : t -> unit
(** Let the queued tasks finish, then join the worker domains. The pool
    must not be used afterwards; idempotent. *)
