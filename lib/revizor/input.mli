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

type sparse
(** A fill plan ({!fill_plan}) with its parity rows: for each plan word
    [w] and value bit [b], the 64-bit mask whose parity against the
    state an input's data fill starts from is bit [b] of the state
    [w]'s value is drawn from. The rows depend on the plan only, so one
    [sparse] serves every input of a test case. Mutable, so an arena
    rebuilds it in place. *)

val sparse : unit -> sparse
(** An empty plan with no rows. *)

val set_plan : sparse -> int array -> bits:int -> unit
(** [set_plan sp plan ~bits] copies [plan] into [sp] and builds its rows
    for value bits [0, bits), enough for inputs of entropy up to [bits]:
    [bits] chains of at most 1024 steps of {!Prng.transposed_steps}.
    @raise Invalid_argument unless [plan] is strictly ascending data
    word indices (each in [\[0, 1024)]) and [0 <= bits <= 16]; [sp] is
    then left unchanged. *)

val apply :
  ?data_hi_zero:bool -> ?data_mid_zero:bool -> ?sparse:sparse -> t ->
  State.t -> unit
(** Overwrite registers (generator pool), FLAGS and sandbox memory.
    [~data_hi_zero:true] (default [false]) asserts that bytes 4..7 of
    every data word in [state] are already zero — true for fresh states
    and for states only ever filled by [apply] at entropy [<= 26] —
    letting the fill skip the redundant zero stores (half the writes of
    the 8 KiB fill). [~data_mid_zero:true] makes the same assertion for
    bytes 2..3 (the fill only writes them nonzero when [entropy > 10]).

    [sparse] restricts the data fill to its plan's words, each
    receiving exactly the bytes the full fill would have written, as
    masked parities of the input's fill seed. Sound only for a plan from
    {!fill_plan} covering every program that will read the state:
    unlisted words keep whatever a previous fill left there. Ignored
    (full fill) when the entropy is outside [\[0, 16]].
    @raise Invalid_argument if the entropy is in [\[0, 16]] but exceeds
    the [bits] the rows were built for. *)

val fill_plan : Revizor_isa.Program.flat -> int array option
(** The sorted set of data words the program can read — architecturally
    or speculatively — derived from the program text alone ([None] when
    unprovable, e.g. CALL/RET/indirect jumps or an access not covered by
    an adjacent masking [AND]). Filling only these words (plus the last
    data word, which seeds the executor's fill-buffer model and is always
    included) is observation-equivalent to the full fill: for a
    mask-instrumented straight-line/branching program the reachable
    addresses of each access are exactly the submasks of its AND mask
    plus displacement, on speculative paths included. Typically a few
    dozen words out of 1024, and empty-but-one for programs with no
    memory operands — the main lever that makes input materialization
    O(program footprint) instead of O(sandbox size). *)

val to_state : t -> State.t
(** Fresh architectural state initialized from the input. *)

val templates : t list -> State.t array
(** Materialize each input's state once, indexed like the list. The model
    and executor restore these templates into scratch states with
    {!State.copy_into} (a flat blit) instead of regenerating the PRNG
    stream for every warm-up round, measurement repetition and swap-check
    re-measurement. Templates must not be mutated by callers. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
