(** Scheduler observability: per-worker event counters, written without
    synchronisation by their owning worker and aggregated after the worker
    domains have been joined. *)

type worker = {
  id : int;  (** global worker index *)
  pool : string;
      (** owning micropool's name; ["main"] in flat topologies.  When a
          run has several pools the collector additionally emits
          pool-labelled variants of the key [nowa_scheduler_*] series
          ([...{pool="name"}]); the unlabelled aggregates are always
          present with unchanged names. *)
  mutable spawns : int;  (** spawn points executed, inline ones included *)
  mutable inlined : int;
      (** spawn points whose child ran inline, exposing no continuation,
          for one of two reasons in [Engine.Make]: the worker's deque was
          non-empty (lazy exposure), or the frame had exposed before and
          no pool-mate was due the loop.  A pool-mate is due it once the
          worker's re-exposure deadline has passed, as an idle mate's
          failed steal reports by raising the worker's flag; a worker
          alone in its pool, or with a mate asleep, reads the clock
          instead.  The deadline moves on by the worker's period, which
          starts at {!Engine.reexpose_period_ns}, doubles up to
          {!Engine.reexpose_cap_ns} while re-exposed continuations come
          back untaken, and resets when the worker loses or steals a
          continuation.  Always 0 on the other engine families. *)
  mutable steals : int;  (** successful steals committed *)
  mutable steal_attempts : int;  (** steal attempts including failures *)
  mutable lost_continuations : int;
      (** pops that came back empty because a thief won (implicit syncs) *)
  mutable suspensions : int;  (** explicit syncs that had to suspend *)
  mutable fast_syncs : int;  (** explicit syncs satisfied immediately *)
  mutable fused_syncs : int;
      (** explicit syncs that took the fused no-steal fast path: the
          pending hint was zero, so publication, stack handover and the
          resume exchange were all skipped (fusion audit, ISSUE 9) *)
  mutable resumes : int;  (** suspended frames resumed by this worker *)
  mutable tasks : int;  (** tasks executed from the scheduler loop *)
  mutable stack_acquires : int;
  mutable stack_releases : int;
  mutable parks : int;  (** times this worker blocked on its condvar *)
  mutable parked_ns : int;  (** nanoseconds spent parked (zero CPU) *)
  mutable wakeups : int;  (** wake-ups this worker issued as a spawner *)
  mutable wake_retries : int;
      (** park cancellations that raced a wake; the stray token makes a
          later park return immediately (lost-wakeup retry, benign) *)
  mutable routed : int;
      (** [spawn_on]/[spawn_unit_on] roots this worker pushed onto a
          pool's routed queue *)
  mutable idle_rounds : int;
      (** scheduling rounds that found no work: an empty round of the
          shell's idle loop, or of a help-first taskwait *)
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

val progress : worker -> int
(** The sum of the worker's event counts, the health watchdog's motion
    signal: every scheduler station point (spawn, steal attempt, task,
    sync, park, routed push, empty round) bumps one of them. *)

val make :
  ?stacks:stack_stats -> ?routed_abandoned:int -> worker array ->
  elapsed_s:float -> t
(** [routed_abandoned] defaults to 0. *)

val sweep_length : Nowa_obs.Histogram.t
(** [nowa_scheduler_steal_sweep_length]: victims probed per steal round
    before success or give-up; observed by the engines per sweep. *)

val total : t -> (worker -> int) -> int
(** Sum a counter over all workers. *)

val pp : Format.formatter -> t -> unit

val publish :
  ?stacks:(unit -> stack_stats) -> routed_abandoned:(unit -> int) ->
  worker array -> unit
(** Make the given per-worker records (and optionally a stack-stats
    closure and the abandoned-root count's getter) the live source
    behind the [nowa_scheduler_*] / [nowa_stacks_*] /
    [nowa_routed_abandoned_total] metrics on
    {!Nowa_obs.Registry.default}.  Called by
    an engine when a run starts; scrapes then read the workers' plain
    mutable counters relaxed, cross-domain — approximate while running,
    exact once the worker domains have joined.  Each call replaces the
    previous source; the last run's totals stay visible after the join
    so end-of-process dumps are meaningful. *)
