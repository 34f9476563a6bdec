(** Deterministic pseudo-random number generator (xorshift64-star).

    All randomness in the framework flows through explicit [Prng.t] values
    so that every experiment is reproducible from its seed, as required
    for the artifact-style reruns of Tables 4 and 5. *)

type t

val create : seed:int64 -> t
(** A zero seed is remapped to a fixed nonzero constant. *)

val copy : t -> t
val next : t -> int64
val bits : t -> int -> int64
(** [bits t n] draws [n] low-entropy bits (0 <= n <= 63). *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. @raise Invalid_argument if [n <= 0]. *)

val bool : t -> bool
val choose : t -> 'a list -> 'a
(** @raise Invalid_argument on an empty list. *)

val split : t -> t
(** Derive an independent generator (for per-input streams). *)

(** {1 Checkpointing}

    The generator's full state is one 64-bit word; capturing and
    restoring it resumes the stream at the exact position, which is what
    makes campaign checkpoints bit-identical to uninterrupted runs. *)

val state : t -> int64
val of_state : int64 -> t
(** [of_state (state t)] continues [t]'s stream exactly. *)

val set_state : t -> int64 -> unit
(** Restore a live generator in place (used to rewind the executor's
    noise stream on resume). *)

(** {1 Linear structure}

    The xorshift64 state transition M is linear over GF(2): every bit of
    [M s] is a xor of bits of [s]. So bit [b] of the state [k] steps on
    is the parity of [s] masked by the row [(Mᵀ)^k e_b], and a draw that
    depends on a few low state bits is a handful of masked parities of
    the starting state. The sparse input fill uses this to compute the
    words a test program can read without walking the stream. *)

val xorshift_step : int64 -> int64
(** One raw state transition (no output multiply, no normalization):
    [state (let t = of_state s in ignore (next t); t) = xorshift_step s]
    for every nonzero [s]. *)

val transposed_steps : int64 -> steps:int -> int64
(** [transposed_steps v ~steps] applies the transposed transition Mᵀ
    [steps] times to [v] (none if [steps <= 0]). For every [s], [k] and
    [b], bit [b] of [xorshift_step] iterated [k] times on [s] is the
    parity of [s land transposed_steps (1L lsl b) ~steps:k]. *)

(** {1 Keyed streams}

    Splitmix64-based derivation of a generator from a key plus a
    coordinate vector, e.g. [(campaign_seed, test_case, input, rep)].
    Unlike [split], the result depends only on the coordinates — not on
    how many draws any other stream has made — so measurement noise keyed
    this way is bit-identical for any executor domain count and any
    scheduling order. *)

val mix64 : int64 -> int64
(** The splitmix64 finalizer (a bijective 64-bit mixer). *)

val derive : int64 -> int64 list -> t
(** [derive key coords] is a fresh generator fully determined by
    [key] and [coords]. *)
