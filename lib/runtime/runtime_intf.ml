(** The programming-language-layer interface every scheduler engine in
    this platform implements (the [spawn]/[sync] keywords of Listing 1 in
    the paper, expressed as a library).

    Fully-strict usage contract: a spawning function opens a {!S.scope};
    [spawn] may only be called with the scope of the lexically enclosing
    [scope] invocation (never with a scope smuggled in from an outer or
    concurrent function); all children of a scope join at the latest when
    [scope] returns.  Promises may only be read after a [sync] (explicit
    or the implicit one at scope exit) that joins the corresponding
    child. *)

module type S = sig
  val name : string
  (** Identifier used in benchmark output ("nowa", "fibril", ...). *)

  val description : string

  type scope
  (** A spawning-function frame (one per [scope] invocation). *)

  type 'a promise
  (** The result cell of a spawned child. *)

  type pool
  (** Handle to one named worker pool (micropool) of the running
      topology — see {!Config.t.pools}.  With an empty pool list the
      runtime has a single implicit pool called ["main"]. *)

  val run : ?conf:Config.t -> (unit -> 'a) -> 'a
  (** Start the runtime system, execute the computation to completion on
      the configured workers and tear the workers down.  Exceptions from
      the computation are re-raised.  Not reentrant. *)

  val scope : (scope -> 'a) -> 'a
  (** Enter a spawning function: allocates the frame and performs the
      implicit sync at exit (also on exceptional exit, preserving full
      strictness).  Must be called from within [run]. *)

  val spawn : scope -> (unit -> 'a) -> 'a promise
  (** Fork point.  The platform may execute the child serially (the
      common case) or in parallel with the continuation, at its sole
      discretion — [spawn] expresses the {e potential} for parallelism. *)

  val spawn_unit : scope -> (unit -> unit) -> unit
  (** Fire-and-forget fork point for request-shaped work: like {!spawn}
      but without allocating a promise, so a server dispatch loop can
      inject one task per request with nothing to read back.  The child
      is still joined by the enclosing scope's sync; its exception (if
      any) is re-raised there. *)

  val sync : scope -> unit
  (** Explicit sync point: returns once every child spawned so far in
      this scope has finished.  Re-raises the first child exception. *)

  val get : 'a promise -> 'a
  (** Read a joined child's result.  Raises [Invalid_argument] if the
      child has not been synced yet (a fully-strictness violation). *)

  val pool : string -> pool
  (** Resolve a pool by name.  Must be called from within [run]; raises
      [Invalid_argument] on an unknown name. *)

  val find_pool : string -> pool option
  (** Like {!pool} but total over the name. *)

  val pool_name : pool -> string

  val self_pool : unit -> string
  (** Name of the pool owning the worker executing the caller.  Routed
      tasks observe the pool they actually run on — their home pool
      unless spill-over stealing moved them. *)

  val spawn_on : pool -> (unit -> 'a) -> 'a promise
  (** Route a task to a named pool: the thunk is enqueued on that
      pool's routed queue (lock-free, FIFO) and executed by one of its
      workers (or, with {!Config.t.spill_over}, possibly by a foreign
      idle worker).  Unlike {!spawn} this is {e not} tied to the
      caller's scope — the task is an independent root on the target
      pool and its promise is a cross-pool cell read with {!get}
      (non-blocking, after completion is known) or {!await}
      (blocking).  Tasks routed to the same pool start in FIFO
      injection order.

      Roots still queued when [run]'s computation returns are not run:
      the runtime counts them after its workers stop, in
      [Metrics.t.routed_abandoned] (and [nowa_routed_abandoned_total]),
      and logs a warning on [nowa.runtime].  A computation that needs
      its routed work done must wait for it before returning. *)

  val spawn_unit_on : pool -> (unit -> unit) -> unit
  (** Promise-free {!spawn_on} for request-shaped work: the thunk itself
      is queued, with no wrapper.  Its exception (if any) is caught by
      the engine of the worker that runs it — the continuation-stealing
      engine's root handler, or the help-first engines' routed task —
      and logged at [Error] on the [nowa.runtime] source, naming the
      runtime and the pool that ran it; the worker goes on with its next
      task.  There is no joining scope to re-raise it in. *)

  val await : 'a promise -> 'a
  (** Block the calling thread until a {!spawn_on} promise is filled,
      then return the result or re-raise.  Blocks the OS thread — meant
      for orchestration strands (a pipeline driver waiting on another
      pool), not for the spawn/sync hot path.  On a same-pool promise:
      returns immediately if filled, raises [Invalid_argument]
      otherwise (join those through [sync]). *)

  val last_metrics : unit -> Metrics.t option
  (** Metrics of the most recently completed [run], if collected. *)

  val last_trace : unit -> Nowa_trace.Trace.t option
  (** Per-worker event trace of the most recently completed [run];
      [None] unless the run's {!Config.t.trace_capacity} was positive
      (or the runtime does not trace, e.g. the serial elision). *)
end
