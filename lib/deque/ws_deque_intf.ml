(** Signatures shared by all work-stealing deque implementations.

    A work-stealing deque (Section II-A of the paper) is a double-ended
    queue with asymmetric ends: the owning worker pushes and pops at the
    {e bottom} in LIFO order; thieves remove from the {e top} in FIFO
    order.  Implementations only need to be partially multithread-safe:
    [steal] may run concurrently with itself and with at most one bottom
    operation, while the two bottom operations are never concurrent with
    each other. *)

(** Element type with an inhabitant used to blank freed slots. *)
module type ELT = sig
  type t

  val dummy : t
end

exception Full
(** Raised by bounded deques ([Abp]) when [push_bottom] finds no space.
    The ABP queue can raise this even when its logical size is small —
    the effective-capacity pathology described in Section II-D. *)

module type S = sig
  type elt
  type t

  val name : string
  (** Short identifier used in benchmark output ("cl", "the", ...). *)

  val create : ?capacity:int -> unit -> t
  (** [capacity] is the initial slot count of the growing deques (CL,
      THE, locked: rounded up to a power of two, at least 8) and the
      fixed slot count of ABP. *)

  val push_bottom : t -> elt -> unit
  (** Owner only.  May raise {!Full} on bounded implementations. *)

  val pop : t -> elt
  (** Owner only.  LIFO: returns the most recently pushed element that has
      not been stolen, or [E.dummy] when the deque is empty (or the last
      element was lost to a racing thief).  This is the allocation-free
      variant used on the scheduler's per-spawn hot path — no [option]
      box is built per pop.  Callers must never push the dummy element;
      all implementations already reserve it for blanking freed slots. *)

  val pop_bottom : t -> elt option
  (** Owner only.  LIFO: [pop] wrapped in an [option]; kept for tests and
      cold paths where the extra allocation does not matter. *)

  val steal : t -> on_commit:(elt -> unit) -> elt option
  (** Thief operation; FIFO from the top.  [on_commit] runs exactly once if
      and only if the steal succeeds, at a point where the transfer can no
      longer fail.  For lock-based deques it runs {e inside} the critical
      section — this is the hook Fibril-style runtimes use to couple the
      steal with their strand-counter update (paper Listing 2); wait-free
      runtimes pass a no-op.  Returns [None] both when the deque is empty
      and when the attempt aborted due to a race; callers retry. *)

  val size : t -> int
  (** Approximate number of elements; exact when quiescent. *)

  val steal_batch : t -> max:int -> on_commit:(elt -> unit) -> elt list
  (** Thief operation: take up to [max] elements from the top in FIFO
      order, oldest first.  [on_commit] runs once per element actually
      transferred, under the same guarantee as {!steal}.  Lock-based
      deques take the whole batch under one critical section (the
      [steal_half] idiom: one lock acquisition amortised over the batch);
      CAS-based deques degrade to [max] independent {!steal}s, stopping
      at the first failure.  Returns [[]] when nothing could be taken. *)
end

(** A deque implementation, abstracted over its element type. *)
module type MAKER = functor (E : ELT) -> S with type elt = E.t
