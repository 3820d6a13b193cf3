(** Pool-topology normalisation shared by every engine.

    A {!Config.t} describes either one implicit flat pool (empty
    {!Config.t.pools}) or several named micropools; [of_config] turns
    both into the same validated shape — an array of pool specs carving
    the global worker-id space [0, total) into contiguous ranges, one
    per pool.

    Validation is loud and early (before the runtime guard is entered
    or any domain spawned): empty or duplicate names, non-positive
    worker counts, and pools wider than {!Sleepers.mask_bits} all raise
    [Invalid_argument] — the ISSUE 10 fix for the old silent
    park-degradation of oversized registries. *)

type spec = {
  name : string;
  lo : int;  (** first global worker id of this pool *)
  hi : int;  (** one past the last global worker id *)
}

val of_config : Config.t -> spec array
(** Normalise and validate; the first spec hosts worker 0 (and the root
    computation).  Raises [Invalid_argument] on a bad topology. *)

val total : spec array -> int
(** Total worker count across all pools. *)

val group_of : spec array -> int -> int
(** Index of the pool owning a global worker id. *)
