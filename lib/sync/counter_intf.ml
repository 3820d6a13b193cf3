(** The strand-coordination counter of a spawning-function frame.

    This is the data structure at the centre of the paper: it decides when
    the fully-strict sync condition [N_r = 0] holds, where [N_r] is the
    number of active parallel strands of the frame.  Two implementations
    are provided — the wait-free Nowa scheme (Section IV) and the
    lock-based Fibril scheme (Listing 2) — behind one signature, so the
    scheduler engine is generic over the coordination strategy.

    Protocol, as driven by the continuation-stealing engine:

    - A thief that steals a continuation of the frame calls {!note_steal}
      from inside the deque's steal commit hook (under the deque lock for
      locking deques), then {!note_resume} immediately before resuming the
      stolen continuation.
    - A worker whose [pop_bottom] after a child call came back empty has
      lost its continuation; the rest of its control flow is a joining
      strand: it calls {!child_joined} (the implicit sync), and if that
      returns [true] it must resume the frame's suspended sync
      continuation.
    - The main path, upon reaching an explicit sync, first checks
      {!forked} (the engine skips the call for a frame that never
      offered a continuation to thieves, which cannot have forked); if
      stealing ever materialised it {e publishes its sync
      continuation in the frame} and only then calls {!reach_sync}.  A
      [true] result means the caller observed the sync condition itself
      and proceeds (taking its continuation back); on [false] exactly one
      future {!child_joined} will return [true].
    - After a completed sync, {!reset} prepares the frame for a subsequent
      spawn phase of the same function. *)

module type JOIN_COUNTER = sig
  type t

  val name : string

  val create : unit -> t

  val note_steal : t -> unit
  (** Thief, at steal commit.  Lock-based scheme: the [count++ == 0 → +2]
      protocol under the frame lock.  Wait-free scheme: no-op — this very
      absence is what removes the hazardous race. *)

  val note_resume : t -> unit
  (** Thief, just before resuming the stolen continuation.  Wait-free
      scheme: α := α + 1, unsynchronised by Invariant II (only the main
      path executes this, never in parallel with itself). *)

  val child_joined : t -> bool
  (** Implicit sync of a joining strand.  [true] iff this call made the
      sync condition hold (then the caller resumes the frame). *)

  val reach_sync : t -> bool
  (** Explicit sync on the main path; requires the frame's sync
      continuation to be published first.  [true] iff the sync condition
      already holds and the caller proceeds.

      Fused-path exception: when {!pending_hint} returned [0] on the main
      path at the sync point, every stolen strand has already joined and
      no continuation of the frame remains stealable, so [reach_sync] is
      guaranteed to return [true] — the engine then skips publication
      entirely (the hot-path fusion of ISSUE 9) and asserts the result. *)

  val forked : t -> bool
  (** Main path only: has any continuation of this frame actually been
      stolen (N_r was ever incremented)?  When [false], sync is a no-op. *)

  val reset : t -> unit
  (** Main path, after a completed sync: re-arm for the next spawn phase. *)

  val pending_hint : t -> int
  (** Main path, before sync: best-effort count of still-active strands.
      May be momentarily stale but never negative, and stale only in the
      conservative direction: a result of [0] at an explicit sync point
      is exact (all steals of the frame happen-before the main path
      reaches its sync, and each join only shrinks the count), which is
      what makes the engine's fused sync sound.  Nonzero results are
      heuristic (e.g. whether stack suspension bookkeeping is worth
      doing). *)

  val active : t -> int
  (** Diagnostic best-effort view of N_r (exact when quiescent). *)
end
