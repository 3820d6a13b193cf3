(** Runtime-system configuration shared by all scheduler engines. *)

type victim_policy =
  | Random  (** randomised work stealing (the default, Blumofe-Leiserson) *)
  | Round_robin  (** cyclic victim scan — an ablation knob *)

type idle_policy =
  | Spin  (** pure busy-wait with exponential backoff — the pre-elastic
              behaviour; burns a core per idle worker *)
  | Yield_after of int
      (** after that many consecutive failed steal rounds, each further
          round also yields the OS timeslice (cooperative step; never
          blocks) *)
  | Park_after of int
      (** after that many failed rounds spinning and as many again
          yielding, announce in the sleeper registry, re-check every
          deque, and block on the worker's condition variable until a
          spawner wakes it (the default) *)

type madvise_mode =
  | Madv_free
      (** lazy page reclamation: pages are freed at the modelled syscall
          cost, reuse is cheap *)
  | Madv_dontneed
      (** eager reclamation: additionally pay a refault cost when a
          shrunk stack is next used — the variant Yang & Mellor-Crummey
          evaluated *)

type pool_conf = {
  pc_name : string;  (** Pool name, the routing key for [spawn_on]. *)
  pc_workers : int;
      (** Workers in this pool (at most [Sleepers.mask_bits]; validated
          loudly at pool construction). *)
}
(** One named worker pool (a {e micropool}).  Each pool gets its own
    instances of the engine's deque and counter families and its own
    sleeper registry; the idle policy and steal sweep are the top-level
    ones.  Workers steal only from pool-mates unless {!t.spill_over} is
    set. *)

type t = {
  workers : int;
      (** Number of workers (the calling domain is worker 0; [workers − 1]
          further domains are spawned).  Ignored when {!t.pools} is
          non-empty — the pool sizes then determine the worker count. *)
  victim_policy : victim_policy;
  seed : int;  (** Seed for the per-worker victim-selection PRNGs. *)
  madvise : bool;
      (** Simulate the practical cactus-stack solution of Yang &
          Mellor-Crummey: on stack suspension, release the physical pages
          of the unused stack portion at a modelled syscall cost
          (Section V-B of the paper). *)
  madvise_cost_ns : int;
      (** Modelled cost of one madvise() call (syscall + page-table work;
          the paper's Figure 8 penalty comes from this). *)
  madvise_mode : madvise_mode;
  refault_ns : int;
      (** With [Madv_dontneed], the modelled page-fault cost paid when a
          previously shrunk stack is reused. *)
  trace_capacity : int;
      (** Per-worker event-trace ring capacity (rounded up to a power of
          two); 0 (the default) disables tracing entirely — the engines
          then pay a single flag check per emission site.  The trace of
          the last run is available through
          {!Runtime_intf.S.last_trace}. *)
  idle_policy : idle_policy;
      (** What an out-of-work worker does: see {!idle_policy}.  Parking
          never touches the spawn/join hot path — spawners pay one atomic
          load unless a sleeper actually exists. *)
  steal_sweep : int;
      (** Victims probed per steal round (clamped to the victim count).
          Continuation-stealing engines sweep this many distinct randomised
          victims before counting the round as failed; the child-stealing
          and central baselines additionally grab up to this many tasks in
          one batched ([steal_half]-style) acquisition. *)
  heartbeats : bool;
      (** Per-worker heartbeat words, bumped by one plain padded int
          store at each scheduler station point (task completion, steal
          attempt, park/unpark).  On by default — the cost is one
          unfenced store — and only turned off by the overhead gate in
          [bench hotpath]. *)
  watchdog_interval_ms : int;
      (** Scan cadence of the health watchdog monitor thread; 0 (the
          default) leaves the monitor off.  When positive, the engine
          hands {!Runtime_guard} a monitor that samples heartbeats and
          sleeper state every interval, classifies each worker as
          active / parked / stalled, and triggers the flight recorder on
          anomalies (see {!Health}). *)
  watchdog_stall_scans : int;
      (** Consecutive no-progress scans of an unparked worker before the
          watchdog declares it stalled (and, pool-wide with ready work
          visible, before it declares starvation).  Detection latency is
          bounded by [watchdog_stall_scans * watchdog_interval_ms]. *)
  watchdog_dump : bool;
      (** Whether a watchdog verdict triggers a flight-recorder
          postmortem bundle under [artifacts/] (on by default; verdicts
          are still recorded and exported when off). *)
  pools : pool_conf list;
      (** Named worker pools.  Empty (the default) means one implicit
          pool called ["main"] with {!t.workers} workers — the flat
          pre-micropool behaviour, with an unchanged hot path.  When
          non-empty, the first pool hosts the root computation (and is
          where [run]'s main thunk executes); pool names must be
          distinct and non-empty, and each pool's worker count must be
          in [1, Sleepers.mask_bits] or [run] raises
          [Invalid_argument]. *)
  spill_over : bool;
      (** Cross-pool spill-over stealing: an idle worker sweeps foreign
          pools' deques and inject queues only after exhausting its own
          pool's victims, just before parking would otherwise win.  Off
          by default — pools are then fully isolated and a task routed
          with [spawn_on] never executes outside its pool. *)
}

val default : unit -> t
(** One worker per available core (clamped to [Sleepers.mask_bits]),
    madvise off, single implicit pool. *)

val with_workers : int -> t
(** [default ()] with the given worker count. *)

val pool : string -> workers:int -> pool_conf
(** [pool name ~workers] builds one {!pool_conf} entry. *)
