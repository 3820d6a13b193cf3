(** Allocation helpers that keep frequently written cells off other
    cells' cache lines.

    OCaml 5.1 has no [Atomic.make_contended].  Each helper returns a
    block with {!cache_line_words} unused fields after its last real
    field, as multicore-magic's [copy_as_padded] does, so the padding
    moves with the block: the minor GC promotes one domain's young
    blocks side by side into its size-classed pools, where spacer blocks
    allocated around a cell would be gone.  The real fields of two padded
    blocks end at least 72 bytes apart, in either order; an unpadded
    block just before a padded one can still share its first line. *)

val atomic : 'a -> 'a Atomic.t
(** [atomic v] is a fresh atomic initialised to [v], padded. *)

val cache_line_words : int
(** Number of OCaml words per assumed 64-byte cache line. *)

val isolate : (unit -> 'a) -> 'a
(** [isolate f] is a padded copy of the record or non-float array
    [f ()]; a padded array's [Array.length] counts the padding, which
    reads as [0] in an int array.  It is a copy, so [f] must return a
    fresh block that nothing references yet; an all-float record (a
    float array) raises [Invalid_argument].  Use for per-worker mutable
    state written on the hot path (metric counters, worker records). *)
