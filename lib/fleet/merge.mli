(** The central corpus merge: shard results fold into one
    [revizor.merged.v1] document — violations, summed statistics and
    the union of the per-shard coverage atlases.

    Commits are {e idempotent} (a journal of committed shard ids makes
    re-committing a shard a no-op, so a crash between the merged-doc
    write and the ledger update never duplicates results) and {e order
    independent} (sorted by shard id; {!Revizor.Ucoverage.merge} is a
    commutative/associative/idempotent union) — any completion order
    over the same shards yields byte-identical [merged.json]. *)

val schema : string
(** ["revizor.merged.v1"]. *)

type violation = {
  mv_shard : int;
  mv_seed : int64;
  mv_entry : Worker.violation_entry;
}

type t

val create : spec:Ledger.spec -> t
(** Empty merge document for this campaign (carries the spec's
    {!Ledger.fingerprint}). *)

val commit : t -> Worker.result -> bool
(** Fold one shard result in; [false] (and no mutation) if the shard is
    already journaled. In-memory only — call {!save} to persist. *)

val committed : t -> int -> bool
val shards : t -> int list
val violations : t -> violation list
val stats : t -> Revizor.Fuzzer.stats
val atlas : t -> Revizor.Ucoverage.t

val save : dir:string -> spec:Ledger.spec -> t -> unit
(** Atomic write of [merged.json] ({!Revizor_obs.Atomic_file.write},
    four attempts; [fleet.merge] fires per attempt); raises on
    persistent failure — the caller requeues the shard and the journal
    absorbs the eventual duplicate commit. [spec] is unused: the
    document already carries its campaign's fingerprint. *)

val load : dir:string -> spec:Ledger.spec -> (t, string) result
(** Parse [merged.json] back (the empty document if the file does not
    exist yet); fingerprint-checked against [spec]. *)

val to_json : t -> Revizor_obs.Json.t
val of_json : Revizor_obs.Json.t -> (t, string) result

val render : t -> string
(** The exact bytes {!save} writes. *)
