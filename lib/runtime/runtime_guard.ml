let active : string option Atomic.t = Atomic.make None

(* The stop thunk of the health-monitor thread attached to the current
   run.  Only the guard holder touches this between its [enter]/[exit]
   bracket, so a plain ref is race-free: the CAS on [active] is the
   synchronisation edge.  Keeping the slot here (rather than in each
   engine) is what makes "exactly one monitor per process, always joined
   at shutdown" a structural property instead of a per-engine promise —
   back-to-back pools each start and join their own monitor, a second
   start within one run is refused, and [exit] cannot leak the thread
   because it is the one place the stop thunk lives. *)
let monitor_stop : (unit -> unit) option ref = ref None

let enter name =
  if not (Atomic.compare_and_set active None (Some name)) then
    failwith
      (Printf.sprintf
         "%s.run: another runtime is already active in this process (runs \
          cannot nest or overlap)"
         name)

(** Attach the run's monitor thread.  [start ()] must launch the thread
    and return its stop-and-join thunk.  Called between {!enter} and
    {!exit} by the engine that owns the run; if a monitor is already
    attached the call is a no-op, so at most one monitor ever runs. *)
let start_monitor start =
  match !monitor_stop with
  | Some _ -> ()
  | None -> monitor_stop := Some (start ())

let exit () =
  (match !monitor_stop with
  | Some stop ->
    monitor_stop := None;
    (try stop () with _ -> ())
  | None -> ());
  Atomic.set active None
