(** Scheduler observability.  A {e station point} is a place where the
    scheduler records what it did (a spawn, a steal attempt, a task
    start, a park); {!table} gives each {!kind} its Prometheus series,
    HELP text and, if it traces, its event.  A worker's counters are one
    int array indexed by kind, written without synchronisation by its
    owning worker; everything below loops over the table, so adding a
    counter adds one constructor and one row. *)

type kind =
  | Spawns  (** spawn points executed, inline ones included *)
  | Inlined
      (** spawn points whose child ran inline, exposing no continuation:
          the worker's deque was non-empty (lazy exposure), or the frame
          had exposed and no pool-mate was due the loop (see {!Engine},
          "Re-exposure deadline").  Always 0 on the help-first family. *)
  | Steals
      (** successful steals committed: one per committed grab, whether
          it took one continuation, a batch of a pool-mate's deque or a
          batch of gomp's FIFO *)
  | Steal_attempts  (** steal attempts including failures *)
  | Lost_continuations  (** pops that lost their continuation to a thief *)
  | Suspensions  (** explicit syncs that had to suspend (or wait) *)
  | Fast_syncs  (** explicit syncs satisfied immediately *)
  | Fused_syncs
      (** explicit syncs that took the fused no-steal fast path: the
          pending hint was zero, so publication, stack handover and the
          resume exchange were all skipped *)
  | Resumes  (** suspended frames resumed by this worker *)
  | Tasks
      (** tasks started, from the scheduler loop or, help-first, by a
          strand waiting at a sync *)
  | Stack_acquires  (** stack-pool acquisitions *)
  | Stack_releases  (** stack-pool releases *)
  | Parks  (** times this worker blocked on its condvar *)
  | Parked_ns  (** nanoseconds spent parked, added at each unpark *)
  | Wakeups  (** wake-ups this worker issued as a spawner or router *)
  | Wake_retries
      (** park cancellations that raced a wake; the stray token makes a
          later park return immediately (lost-wakeup retry, benign) *)
  | Routed  (** roots this worker pushed onto a pool's routed queue *)
  | Idle_rounds
      (** scheduling rounds that found no work: an empty round of the
          shell's idle loop, or of a help-first taskwait *)

external index : kind -> int = "%identity"
(** The kind's slot in {!worker.counts}, in constructor order.  A
    primitive, so a station's index is a constant in every module. *)

type row = {
  kind : kind;
  label : string;  (** as {!pp} prints it *)
  name : string;  (** [nowa_scheduler_<label>_total] *)
  help : string;
  event : Nowa_trace.Event.kind option;
      (** emitted by a station of this kind while tracing; [None] for
          the count-only kinds and [Parked_ns] *)
  per_pool : bool;  (** also exported as [name{pool="p"}] per pool *)
}

val table : row array
(** One row per kind, at index {!index}[ kind]. *)

type worker = {
  id : int;  (** global worker index *)
  pool : string;
      (** owning micropool's name; ["main"] in flat topologies.  A run
          with several pools also exports the [per_pool] rows per pool;
          the unlabelled aggregates keep their names. *)
  counts : int array;
      (** indexed by {!index}, written only by the owning worker; padded
          past the table's length with zeros, so read it through {!get} *)
}

type stack_stats = {
  allocated_stacks : int;  (** stacks ever allocated *)
  live_stacks : int;  (** stacks currently checked out of the pool *)
  max_rss_pages : int;  (** resident-page watermark (Table II) *)
  madvise_calls : int;
  pool_hits : int;  (** acquisitions that crossed the global pool lock *)
}

type t = {
  workers : worker array;
  elapsed_s : float;
      (** wall time from just before the helper worker domains are
          spawned until they have all joined and the engine's post-join
          hook has run; the same definition for every engine family *)
  stacks : stack_stats option;
      (** only the continuation-stealing engines manage simulated
          cactus stacks *)
  routed_abandoned : int;
      (** [spawn_on]/[spawn_unit_on] roots still queued when [main]
          returned: counted after the workers stopped, never run
          ([nowa_routed_abandoned_total]) *)
}

val make_worker : ?pool:string -> int -> worker
(** Zeroed counters, padded with {!Nowa_util.Padding.isolate}. *)

val get : worker -> kind -> int

val progress : worker -> int
(** The sum of the worker's station counters, the health watchdog's
    motion signal: every scheduler station point bumps one of them. *)

val make :
  ?stacks:stack_stats -> ?routed_abandoned:int -> worker array ->
  elapsed_s:float -> t
(** [routed_abandoned] defaults to 0. *)

val sweep_length : Nowa_obs.Histogram.t
(** [nowa_scheduler_steal_sweep_length]: victims probed per steal round
    before success or give-up; observed by the engines per sweep. *)

val total : t -> kind -> int
(** Sum a counter over all workers. *)

val pp : Format.formatter -> t -> unit
(** Every row of {!table} as [label=total], then the stack pool's
    statistics. *)

val publish :
  ?stacks:(unit -> stack_stats) -> routed_abandoned:(unit -> int) ->
  worker array -> unit
(** Make the given per-worker records (and optionally a stack-stats
    closure and the abandoned-root count's getter) the live source
    behind the [nowa_scheduler_*] / [nowa_stacks_*] /
    [nowa_routed_abandoned_total] metrics on
    {!Nowa_obs.Registry.default}.  Called by
    an engine when a run starts; scrapes then read the workers' plain
    counters relaxed, cross-domain — approximate while running,
    exact once the worker domains have joined.  Each call replaces the
    previous source; the last run's totals stay visible after the join
    so end-of-process dumps are meaningful. *)
