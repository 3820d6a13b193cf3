(** Simulated cactus-stack management.

    OCaml 5 fibers make the real cactus-stack problem disappear (every
    fiber is a heap-managed segmented stack), so the stack-related
    behaviour the paper evaluates — per-worker stack caches in front of a
    global pool (the cholesky bottleneck of Section V-A), the madvise()
    cost and RSS saving of the practical cactus-stack solution
    (Section V-B, Figure 8, Table II) — is reproduced by this explicit
    model.  A stack is a page-accounted
    record; acquiring one goes through a per-worker cache and falls back
    to a spinlocked global pool, exactly the recirculation scheme the
    paper describes for Nowa and Fibril; "madvise" charges a calibrated
    virtual cost ({!Config.t.madvise_cost_ns}) and returns the resident
    pages above the suspended frame.

    Resident-page accounting (for Table II): the pool tracks the current
    total of resident pages and its high watermark.  Pages become resident
    as strands dirty them ({!touch}) and are released either never (no
    madvise; the pool recirculates warm stacks) or at suspension / release
    time (madvise). *)

type stack = {
  stack_id : int;
  mutable resident : int;  (** currently resident pages of this stack *)
  mutable accounted : int;  (** pages currently included in the pool RSS *)
  mutable shrunk : bool;
      (** pages were returned by a simulated madvise; with
          [Madv_dontneed] the next acquisition pays a refault cost *)
}

type t

val create : Config.t -> t

val acquire : t -> worker:int -> stack
(** Take a stack: per-worker cache, then global pool, then fresh
    allocation. *)

val release : t -> worker:int -> stack -> unit
(** Return a stack to the worker cache (overflow goes to the global
    pool).  With madvise on, the stack is shrunk to one resident page at
    the modelled cost. *)

val touch : stack -> pages:int -> unit
(** A strand dirtied [pages] more pages (owner-local, unsynchronised);
    residency saturates at a whole stack, 1 MiB / 4 KiB = 256 pages.
    The continuation-stealing engines touch one page per {e exposed}
    spawn only: a spawn whose child runs inline (lazy exposure) stays on
    the spawner's frame and touches nothing, so the resident-page figures
    scale with exposures, not with spawn points. *)

val suspend : t -> stack -> unit
(** The frame at the bottom of [stack] suspended at a sync point; with
    madvise on, free the pages above it at the modelled cost. *)

val reactivate : t -> stack -> unit
(** A suspended stack resumes execution; with [Madv_dontneed] its pages
    refault at the modelled cost. *)

val sync_rss : t -> stack -> unit
(** Fold the stack's locally accumulated page count into the global RSS
    and watermark.  Called at pool-crossing events to keep the hot path
    free of shared-counter traffic. *)

val allocated_stacks : t -> int
(** Stacks ever created by this pool (never decreases). *)

val live_stacks : t -> int
(** Stacks currently checked out ([acquire]d and not yet [release]d). *)

val current_rss_pages : t -> int
val max_rss_pages : t -> int
val madvise_calls : t -> int
val refault_count : t -> int
val global_pool_hits : t -> int
(** Number of acquisitions that had to take the global-pool lock. *)
