(** Global mutual exclusion between [run] invocations: the engines are not
    reentrant, and two pools spinning against each other would deadlock on
    small machines, so attempting it fails fast instead.

    The guard also owns the health-monitor thread of the current run:
    {!watch} attaches at most one monitor per process, and {!exit}
    always stops and joins it before releasing the guard, so
    back-to-back (or aborted) pools can never leak monitor threads. *)

val enter : string -> unit
(** Raises [Failure] if another runtime is already running. *)

val watch : Config.t -> Health.probe -> unit
(** [watch conf probe]: between {!enter} and {!exit}, start the run's
    watchdog over [probe] with [conf]'s interval, stall threshold and
    dump setting, and retain it for {!exit}.  A no-op when
    [watchdog_interval_ms = 0] or a monitor is already attached. *)

val exit : unit -> unit
(** Stops and joins the attached monitor (if any), then releases the
    guard. *)
