(** Global mutual exclusion between [run] invocations: the engines are not
    reentrant, and two pools spinning against each other would deadlock on
    small machines, so attempting it fails fast instead.

    The guard also owns the health-monitor thread of the current run:
    {!start_monitor} attaches at most one monitor per process, and
    {!exit} always stops and joins it before releasing the guard, so
    back-to-back (or aborted) pools can never leak monitor threads. *)

val enter : string -> unit
(** Raises [Failure] if another runtime is already running. *)

val start_monitor : (unit -> unit -> unit) -> unit
(** [start_monitor start]: between {!enter} and {!exit}, launch the
    run's monitor via [start ()] and retain the returned stop-and-join
    thunk for {!exit}.  A no-op when a monitor is already attached. *)

val exit : unit -> unit
(** Stops and joins the attached monitor (if any), then releases the
    guard. *)
