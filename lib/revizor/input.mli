open Revizor_emu

(** Test-case inputs: the architectural state a measurement starts from —
    registers, FLAGS and the memory sandbox (§5.2).

    An input is represented by its PRNG seed plus the entropy mask width;
    the concrete state is derived deterministically. Low entropy
    (2–4 bits) is the paper's lever for input effectiveness (CH2): fewer
    distinct values make colliding contract traces likelier. Derived
    values are shifted into the cache-line-index bits so that masked
    addressing maps different values to different cache lines. *)

type t = { seed : int64; entropy : int }

val generate : Prng.t -> entropy:int -> t
val generate_many : Prng.t -> entropy:int -> n:int -> t list

val apply : t -> State.t -> unit
(** Overwrite registers (generator pool), FLAGS and sandbox memory.

    At entropy [0..16] the four registers and FLAGS are drawn with an
    unboxed two-limb walk of the input's stream and every data word is
    left pending ({!Memory.defer}): the first access to a word fills in
    the value the eager walk gives it, as masked parities of the fill
    stream's state (DESIGN.md §6). This allocates nothing. The parity
    rows are built on a domain's first input, for the value bits in
    use, and again only for a wider entropy. Other entropies take the
    eager walk ({!apply_eager}). *)

val apply_eager : t -> State.t -> unit
(** The reference fill: registers, FLAGS and every data word from the
    boxed {!Prng} walk, at any entropy, leaving nothing pending. *)

val fill_plan : Revizor_isa.Program.flat -> int array option
(** The sorted set of data words the program can read — architecturally
    or speculatively — derived from the program text alone ([None] when
    unprovable, e.g. CALL/RET/indirect jumps or an access not covered by
    an adjacent masking [AND], or when more than half the words are
    reachable), always including the last data word, which seeds the
    executor's fill-buffer model. For a mask-instrumented
    straight-line/branching program the reachable addresses of each
    access are exactly the submasks of its AND mask plus displacement,
    on speculative paths included. The input fill does not use it: it
    fills the words a run touches, on first access. *)

val to_state : t -> State.t
(** Fresh architectural state initialized from the input. *)

val templates : t list -> State.t array
(** Materialize each input's state once, indexed like the list. The model
    and executor run on these templates in place and undo every run
    ({!State.save}/{!State.undo}) instead of regenerating the PRNG stream
    for every warm-up round, measurement repetition and swap-check
    re-measurement. Callers must hand a template back unchanged, as those
    runs do; the data words a run fills on first access stay filled,
    with the input's own values. *)

val equal : t -> t -> bool
