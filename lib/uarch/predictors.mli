(** Branch-direction, indirect-target and return predictors.

    These hold the cross-input microarchitectural context that the paper's
    priming technique (§5.3) exploits: they are {e not} reset between
    inputs of a priming sequence, so earlier inputs train them for later
    ones. *)

(** Bimodal pattern history table: per-address 2-bit saturating counters. *)
module Pht : sig
  type t

  val create : ?size:int -> unit -> t
  (** Default size 512 entries, the simulated CPU's; counters start
      weakly not-taken, matching static forward-branch prediction. A
      pc's counter is chosen by its low bits.
      @raise Invalid_argument naming [size] unless it is a positive power
      of two. *)

  val predict : t -> pc:int -> bool
  val update : t -> pc:int -> taken:bool -> unit

  val get : t -> pc:int -> int
  (** The 2-bit counter [pc] maps to (0–1 predict not-taken, 2–3 taken). *)

  val set : t -> pc:int -> int -> unit
  (** Overwrite that counter with a value read by {!get} — how
      {!Cpu.install} restores a recorded run's post-state. *)

  val reset : t -> unit
end

(** Branch target buffer for indirect jumps: predicts the last observed
    target; predicts "fall through" for a never-seen jump. *)
module Btb : sig
  type t

  val create : ?size:int -> unit -> t
  (** Default size 256 entries, the simulated CPU's, chosen by a pc's
      low bits.
      @raise Invalid_argument naming [size] unless it is a positive power
      of two. *)

  val predict : t -> pc:int -> int option
  val update : t -> pc:int -> target:int -> unit

  val get : t -> pc:int -> int
  (** The raw entry [pc] maps to: the recorded target, or -1 if none. *)

  val set : t -> pc:int -> int -> unit
  (** Overwrite that entry with a value read by {!get}. *)

  val reset : t -> unit
end

(** Return stack buffer of bounded depth. On underflow (more returns than
    calls in the buffer) prediction falls back to [None], which the engine
    treats as an unpredicted (hence mispredicted) return. *)
module Rsb : sig
  type t

  val create : ?depth:int -> unit -> t
  (** Default depth 16, as on Skylake: the simulated CPU's. *)

  val push : t -> int -> unit
  (** Push a return target on CALL; on overflow the oldest entry is lost. *)

  val pop : t -> int option
  (** Predicted return target on RET. *)

  val entries : t -> int list
  (** Current stack contents, newest first, as an immutable snapshot
      ([push]/[pop] never mutate a list they have handed out). At most
      [depth] ints, so structural comparison of two snapshots is cheap —
      the RSB's contribution to a {!Cpu.snapshot}. *)

  val restore : t -> int list -> unit
  (** Make a list returned by {!entries} the current contents again. *)

  val reset : t -> unit
end
