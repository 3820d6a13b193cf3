(** Live runtime health: the stall/convoy watchdog and the
    dump-on-anomaly flight recorder.  See the implementation header for
    the full design; the short version:

    - progress is the worker's counters: the watchdog reads
      {!Metrics.progress}, the sum of the station counters every
      scheduler station point already bumps, so health adds no store to
      any path;
    - a monitor thread (owned by {!Runtime_guard}, at most one per
      process) samples progress and sleeper state each
      [watchdog_interval_ms], classifies workers as active / parked /
      stalled, detects pool-wide starvation, and polls registered
      verdict sources (KV convoys, SLO burn rate);
    - any verdict triggers a postmortem bundle under [artifacts/]:
      frozen trace window, metrics snapshot, verdict table, plus
      registered extras. *)

(** One-shot fault injection, proving the detection path end to end. *)
module Inject : sig
  val stall : worker:int -> ms:int -> unit
  (** Arm a stall: worker [worker]'s next task start spins for [ms]
      milliseconds before the task runs. *)

  val clear : unit -> unit

  val task_start : int -> unit
  (** [task_start w]: worker [w] starts a task (the serial elision: a
      counted spawn).  One load and one branch unless a stall is armed. *)

  val parse_stall : string -> (int * int) option
  (** Parse ["worker:N:ms"], ["N:ms"] or ["N"] (default 200ms). *)
end

type verdict =
  | Worker_stalled of { pool : string; worker : int; scans : int }
      (** [worker] is the pool-local id; [(pool, worker)] names the
          worker uniquely across a multi-pool topology. *)
  | Starvation of { ready : int; scans : int }
  | Convoy of { shard : int; depth : int; held_ms : float }
  | Slo_burn of {
      long_s : float;
      short_s : float;
      long_burn : float;
      short_burn : float;
    }

val verdict_kind : verdict -> string
val verdict_to_json : verdict -> string
val verdict_to_string : verdict -> string

(** What the watchdog samples, packaged by each engine as closures over
    its pool (counter records, sleeper registry, queue-depth estimate). *)
type probe = {
  engine : string;
  workers : int;
  pool_of : int -> string * int;
      (** Global worker index → (pool name, pool-local id); keys every
          row and stall verdict by [(pool, worker)] so two pools'
          worker 0s cannot alias (ISSUE 10). *)
  progress : int -> int;
      (** {!Metrics.progress} of the worker's counter record *)
  announced : int -> bool;
  waiting : int -> bool;
  ready : unit -> int;
  sleepers : unit -> int;
  draining : unit -> bool;
      (** Pool shutdown in progress: counters freeze as workers exit
          their domains, so the scan suspends stall/starvation
          classification instead of misreading shutdown as a wedge. *)
}

val static_probe : engine:string -> Metrics.worker array -> probe
(** Probe for schedulerless runtimes (serial elision), one worker per
    counter record: progress is {!Metrics.progress} of that record;
    never parked, no visible queue. *)

val register_source : name:string -> (unit -> verdict list) -> unit
(** Add a verdict source polled at every scan (combiner convoy probe,
    burn-rate evaluator).  Replaces any source with the same name. *)

val unregister_source : name:string -> unit

(** {2 Published status} *)

type wstate = Active | Parked | Stalled

val wstate_name : wstate -> string

type row = {
  pool : string;
  worker : int;  (** pool-local id *)
  gworker : int;  (** global worker index *)
  state : wstate;
  progress : int;  (** {!Metrics.progress} at the scan *)
  quiet_scans : int;
}

type status = {
  engine : string;
  scan : int;
  at_ns : int;
      (** {!Nowa_util.Clock.now_ns} at the scan: a boot-relative monotonic
          reading, not Unix time, so only differences mean anything *)
  interval_ms : int;
  rows : row array;
  scan_verdicts : verdict list;
}

val status : unit -> status option
(** The most recent scan, or [None] before the first one. *)

val verdicts : unit -> verdict list
(** Every verdict raised since the monitor started, newest first. *)

val healthz : unit -> bool * string
(** Liveness verdict for the [/healthz] endpoint. *)

val statusz : unit -> string
(** Per-worker state table + verdict history for [/statusz]. *)

(** {2 Flight recorder} *)

module Recorder : sig
  val register : name:string -> (dir:string -> unit) -> unit
  (** Add a bundle contributor (the engine's trace freeze, the serving
      layer's anatomy tail).  Replaces any contributor with that name. *)

  val unregister : name:string -> unit
end

val dump_now : reason:string -> string
(** Write a postmortem bundle immediately ([verdicts.json],
    [metrics.prom], plus contributors); returns the bundle directory. *)

val dumped : unit -> string list
(** Bundle directories written since the monitor started, newest
    first. *)

(** {2 Monitor lifecycle}

    Engines do not call these directly — they hand {!Runtime_guard.watch}
    their probe, so the process-wide single-monitor invariant lives in
    one place. *)
module Monitor : sig
  type handle

  val spawn : interval_ms:int -> stall_scans:int -> dump:bool -> probe -> handle
  (** Start the monitor thread; resets published status, verdict log and
      bundle list. *)

  val stop : handle -> unit
  (** Signal and join the monitor thread. *)

  val live : unit -> int
  (** Monitor threads currently running (0 or 1 under the
      {!Runtime_guard} discipline; the leak regression test pins this). *)

  val started_total : unit -> int
end
