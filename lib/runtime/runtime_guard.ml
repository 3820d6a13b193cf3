let active : string option Atomic.t = Atomic.make None

(* The current run's health monitor.  Only the guard holder touches it,
   between [enter] and [exit] (the CAS on [active] is the
   synchronisation edge), and it lives nowhere else: "exactly one
   monitor per process, always joined at shutdown" is structural, not a
   per-engine promise. *)
let monitor : Health.Monitor.handle option ref = ref None

let enter name =
  if not (Atomic.compare_and_set active None (Some name)) then
    failwith
      (Printf.sprintf
         "%s.run: another runtime is already active in this process (runs \
          cannot nest or overlap)"
         name)

let watch (conf : Config.t) probe =
  if conf.watchdog_interval_ms > 0 && Option.is_none !monitor then
    monitor :=
      Some
        (Health.Monitor.spawn ~interval_ms:conf.watchdog_interval_ms
           ~stall_scans:conf.watchdog_stall_scans ~dump:conf.watchdog_dump
           probe)

let exit () =
  (match !monitor with
  | Some h ->
    monitor := None;
    (try Health.Monitor.stop h with _ -> ())
  | None -> ());
  Atomic.set active None
