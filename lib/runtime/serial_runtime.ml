let name = "serial"
let description = "serial elision: spawn = call, sync = no-op"

type scope = unit
type 'a promise = 'a Promise.t

let last_metrics_ref = ref None
let last_metrics () = !last_metrics_ref

(* The serial elision has no scheduler events to trace. *)
let last_trace () = None

(* The single "worker"'s counters, the watchdog's progress: the running
   [run]'s, or [outside] (never written).  Outside a run a spawn pays one
   load and one branch and stores nothing, so serial thunks on several
   domains at once (a benchmark's Ts control) share no line. *)
let outside = (Metrics.make_worker 0).counts
let counters = ref outside

let[@inline] count c k =
  let i = Metrics.index k in
  Array.unsafe_set c i (Array.unsafe_get c i + 1)

(* A counted spawn is the elision's task start: the stall hook runs
   there, as in the engines. *)
let[@inline] count_spawn () =
  let c = !counters in
  if c != outside then begin
    count c Spawns;
    Health.Inject.task_start 0
  end

let[@inline] count_routed () =
  let c = !counters in
  if c != outside then count c Routed

let run ?conf main =
  let conf = match conf with Some c -> c | None -> Config.default () in
  Runtime_guard.enter name;
  (* Publish a worker-0 context (ring stays disabled) so layers above —
     the KV combiner's span attribution, for one — see a deterministic
     worker id instead of -1 under the elision. *)
  Nowa_trace.Current.set ~worker:0 Nowa_trace.Ring.disabled;
  let m = Metrics.make_worker 0 in
  counters := m.counts;
  Runtime_guard.watch conf (Health.static_probe ~engine:name [| m |]);
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      Nowa_trace.Current.clear ();
      counters := outside;
      Runtime_guard.exit ())
    (fun () ->
      let r = main () in
      last_metrics_ref :=
        Some (Metrics.make [| m |] ~elapsed_s:(Unix.gettimeofday () -. t0));
      r)

let scope f = f ()

let spawn () thunk =
  count_spawn ();
  let p = Promise.make () in
  (* Elision semantics: the child runs here and now, and its exception
     propagates immediately, exactly as in the unannotated program. *)
  Promise.fill p (thunk ());
  p

let spawn_unit () thunk =
  count_spawn ();
  thunk ()

let sync () = ()
let get p = Promise.get ~runtime:name p
let await p = Promise.await ~runtime:name p

(* Pool routing under the elision: every pool the configuration names
   exists, but all of them are this one thread — [spawn_on] runs the
   task inline, preserving the serial-elision semantics. *)
type pool = string

(* The elision does not retain the run's config, so any name resolves —
   the engines are where a bad topology fails; serial has no scheduler
   to get it wrong on. *)
let find_pool n = Some (n : pool)
let pool n = (n : pool)

let pool_name (p : pool) = p
let self_pool () = "main"

let spawn_on (_ : pool) thunk =
  count_routed ();
  let p = Promise.make () in
  (match thunk () with
  | v -> Promise.fill p v
  | exception e -> Promise.fill_exn p e);
  p

let spawn_unit_on (pl : pool) thunk =
  count_routed ();
  try thunk ()
  with e ->
    Runtime_log.Log.err (fun m ->
        m "%s: spawn_unit_on %S task raised %s" name pl (Printexc.to_string e))
