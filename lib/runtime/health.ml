(** Live runtime health: the stall/convoy watchdog and the
    dump-on-anomaly flight recorder.

    The runtime's progress claims are about adversarial schedules, yet
    until now a stall could only be explained after the fact (post-join
    traces, anatomy tables).  This module watches a {e running} pool:

    - {b Watchdog} ({!Monitor}): a dedicated thread sampling each
      worker's progress ({!Metrics.progress}: the sum of the counters
      every scheduler station point already bumps, read relaxed — a
      sampling monitor only asks "did the sum move") plus sleeper state
      ({!Sleepers.announced}, {!Sleepers.waiting}) every
      [watchdog_interval_ms].  A worker with no progress is
      {e parked-idle} when its sleeper bit or waiting flag is up, and
      {e stalled} only after [watchdog_stall_scans] consecutive scans
      with neither — so the park/wake token race (bit claimed, token in
      flight) never misflags a healthy sleeper.  Pool-wide, visible
      ready work with no progress anywhere while workers sleep is
      {e starvation} — the lost-wakeup signature.  Subsystems above the
      runtime (the KV combiner's convoy detector, the serve-path SLO
      burn-rate evaluator) register verdict sources that the same scan
      polls.
    - {b Flight recorder} ({!Recorder}): on any verdict (or on demand),
      freezes the wait-free trace rings at their published indexes
      ({!Nowa_trace.Ring.snapshot}) and writes a postmortem bundle under
      [artifacts/]: recent-window Perfetto trace, Prometheus metrics
      snapshot, any registered extras (anatomy top-K tail), and the
      per-worker verdict table.
    - {b Fault injection} ({!Inject}): a one-shot hook that wedges a
      chosen worker at the start of its next task for a bounded time,
      so the whole detection path can be proven end to end from the CLI
      ([nowa_run --inject-stall worker:N:ms]).

    The monitor thread itself is owned by {!Runtime_guard} — exactly one
    per process, joined at run teardown — and its scan timestamp is
    exported as the [nowa_watchdog_last_scan_ns] gauge so a dead monitor
    is itself observable. *)

module Inject = struct
  (* Arming is a plain bool, so an un-armed task start pays one load and
     one branch; the spec itself is an atomic consumed by CAS so the
     stall fires exactly once. *)
  let armed = ref false
  let spec : (int * int) option Atomic.t = Atomic.make None

  let[@inline never] fire w =
    (* CAS against the witnessed value (physical equality), so exactly
       one task start consumes the spec even if two workers race here. *)
    let cur = Atomic.get spec in
    match cur with
    | Some (iw, ms) when iw = w ->
      if Atomic.compare_and_set spec cur None then begin
        armed := false;
        Nowa_util.Clock.spin_ns (ms * 1_000_000)
      end
    | _ -> ()

  let[@inline] task_start w = if !armed then fire w

  (** Arm a one-shot stall: worker [worker]'s next task start spins for
      [ms] milliseconds before the task runs, freezing that worker
      mid-schedule exactly as a runaway task or a pathological syscall
      would. *)
  let stall ~worker ~ms =
    Atomic.set spec (Some (worker, Int.max 0 ms));
    armed := true

  let clear () =
    armed := false;
    Atomic.set spec None

  (* "worker:N:ms", "N:ms" or "N" (default 200ms). *)
  let parse_stall s =
    let parts = String.split_on_char ':' s in
    let parts = match parts with "worker" :: rest -> rest | p -> p in
    match parts with
    | [ w ] -> (
      match int_of_string_opt w with Some w -> Some (w, 200) | None -> None)
    | [ w; ms ] -> (
      match (int_of_string_opt w, int_of_string_opt ms) with
      | Some w, Some ms -> Some (w, ms)
      | _ -> None)
    | _ -> None
end

(* --- verdicts ------------------------------------------------------------ *)

type verdict =
  | Worker_stalled of { pool : string; worker : int; scans : int }
      (** No progress and not parked, for that many consecutive
          scans.  [worker] is the pool-local id —
          together with [pool] it names the worker uniquely in a
          multi-pool topology (ISSUE 10: two pools' worker 0s must not
          alias). *)
  | Starvation of { ready : int; scans : int }
      (** Ready work visible (deque/central-queue depth) but no worker
          progressed while at least one slept — a lost wakeup. *)
  | Convoy of { shard : int; depth : int; held_ms : float }
      (** A KV combiner claim held past threshold with a deep mailbox. *)
  | Slo_burn of {
      long_s : float;
      short_s : float;
      long_burn : float;
      short_burn : float;
    }  (** Serve-path error budget burning past factor on both windows. *)

let verdict_kind = function
  | Worker_stalled _ -> "worker_stalled"
  | Starvation _ -> "starvation"
  | Convoy _ -> "convoy"
  | Slo_burn _ -> "slo_burn"

let verdict_to_json = function
  | Worker_stalled { pool; worker; scans } ->
    Printf.sprintf
      "{\"kind\":\"worker_stalled\",\"pool\":%S,\"worker\":%d,\"scans\":%d}"
      pool worker scans
  | Starvation { ready; scans } ->
    Printf.sprintf "{\"kind\":\"starvation\",\"ready\":%d,\"scans\":%d}" ready
      scans
  | Convoy { shard; depth; held_ms } ->
    Printf.sprintf
      "{\"kind\":\"convoy\",\"shard\":%d,\"depth\":%d,\"held_ms\":%.3f}" shard
      depth held_ms
  | Slo_burn { long_s; short_s; long_burn; short_burn } ->
    Printf.sprintf
      "{\"kind\":\"slo_burn\",\"long_s\":%g,\"short_s\":%g,\"long_burn\":%.3f,\"short_burn\":%.3f}"
      long_s short_s long_burn short_burn

let verdict_to_string = function
  | Worker_stalled { pool; worker; scans } ->
    Printf.sprintf "worker %s/%d stalled (%d scans, unparked, no progress)"
      pool worker scans
  | Starvation { ready; scans } ->
    Printf.sprintf "starvation: %d task(s) visible, no progress for %d scans"
      ready scans
  | Convoy { shard; depth; held_ms } ->
    Printf.sprintf "convoy: shard %d claim held %.1fms with depth %d" shard
      held_ms depth
  | Slo_burn { long_s; short_s; long_burn; short_burn } ->
    Printf.sprintf
      "SLO burn: %.1fx over %gs and %.1fx over %gs (budget-relative)"
      long_burn long_s short_burn short_s

(* --- what the watchdog samples ------------------------------------------ *)

type probe = {
  engine : string;
  workers : int;
  pool_of : int -> string * int;
      (** Global worker index → (pool name, pool-local id).  The
          progress and sleeper accessors below still take the global
          index; this mapping keys rows and verdicts by [(pool, worker)]
          so multi-pool topologies never alias two workers into one
          row. *)
  progress : int -> int;  (** {!Metrics.progress} of that worker *)
  announced : int -> bool;
  waiting : int -> bool;
  ready : unit -> int;  (** visible queued work: deque sizes + routed queues *)
  sleepers : unit -> int;
  draining : unit -> bool;
      (** Pool shutdown in progress: workers exit their domains and
          their counters freeze for good reasons, so stall and
          starvation classification is suspended. *)
}

(** A static probe for runtimes without a scheduler (serial elision):
    one counter record per worker, never parked, no queue. *)
let static_probe ~engine (counters : Metrics.worker array) =
  {
    engine;
    workers = Array.length counters;
    pool_of = (fun w -> ("main", w));
    progress = (fun w -> Metrics.progress counters.(w));
    announced = (fun _ -> false);
    waiting = (fun _ -> false);
    ready = (fun () -> 0);
    sleepers = (fun () -> 0);
    draining = (fun () -> false);
  }

(* Extra verdict sources registered by layers above the runtime (KV
   convoy probe, burn-rate evaluator).  Registration is cold-path. *)
let sources_mu = Mutex.create ()
let sources : (string * (unit -> verdict list)) list ref = ref []

let register_source ~name f =
  Mutex.lock sources_mu;
  sources := (name, f) :: List.remove_assoc name !sources;
  Mutex.unlock sources_mu

let unregister_source ~name =
  Mutex.lock sources_mu;
  sources := List.remove_assoc name !sources;
  Mutex.unlock sources_mu

let poll_sources () =
  Mutex.lock sources_mu;
  let ss = !sources in
  Mutex.unlock sources_mu;
  List.concat_map
    (fun (_, f) -> match f () with vs -> vs | exception _ -> [])
    ss

(* --- published status ---------------------------------------------------- *)

type wstate = Active | Parked | Stalled

let wstate_name = function
  | Active -> "active"
  | Parked -> "parked"
  | Stalled -> "stalled"

type row = {
  pool : string;  (* owning pool; rows are keyed by (pool, worker) *)
  worker : int;  (* pool-local worker id *)
  gworker : int;  (* global worker index (trace/metrics key) *)
  state : wstate;
  progress : int;
  quiet_scans : int;
}

type status = {
  engine : string;
  scan : int;
  at_ns : int;
  interval_ms : int;
  rows : row array;
  scan_verdicts : verdict list;
}

let last_status : status option Atomic.t = Atomic.make None
let log_mu = Mutex.create ()
let verdict_log : (int * verdict) list ref = ref [] (* (scan, v), newest first *)

let status () = Atomic.get last_status

let verdicts () =
  Mutex.lock log_mu;
  let l = List.map snd !verdict_log in
  Mutex.unlock log_mu;
  l

let record_verdicts scan vs =
  if vs <> [] then begin
    Mutex.lock log_mu;
    verdict_log := List.map (fun v -> (scan, v)) vs @ !verdict_log;
    Mutex.unlock log_mu
  end

(* --- exported gauges ----------------------------------------------------- *)

let g_last_scan = Nowa_obs.Registry.gauge "nowa_watchdog_last_scan_ns"
    ~help:"Monotonic timestamp of the watchdog's last completed scan; a frozen value means the monitor itself is dead"
let g_active = Nowa_obs.Registry.gauge "nowa_health_workers_active"
    ~help:"Workers neither parked nor stalled at the last scan"
let g_parked = Nowa_obs.Registry.gauge "nowa_health_workers_parked"
    ~help:"Workers parked or inside the park protocol at the last scan"
let g_stalled = Nowa_obs.Registry.gauge "nowa_health_workers_stalled"
    ~help:"Workers past the stall threshold at the last scan"
let c_scans = Nowa_obs.Registry.counter "nowa_watchdog_scans_total"
    ~help:"Watchdog scans completed"
let c_verdicts = Nowa_obs.Registry.counter "nowa_watchdog_verdicts_total"
    ~help:"Watchdog verdicts raised (stalls, starvation, convoys, SLO burns)"

(* --- flight recorder ----------------------------------------------------- *)

module Recorder = struct
  (* Contributors write one file each into the bundle directory.  The
     engine installs a trace-freeze contributor per run; the serving
     layer installs the anatomy tail when enabled. *)
  let mu = Mutex.create ()
  let contributors : (string * (dir:string -> unit)) list ref = ref []
  let seq = Atomic.make 0

  let register ~name f =
    Mutex.lock mu;
    contributors := (name, f) :: List.remove_assoc name !contributors;
    Mutex.unlock mu

  let unregister ~name =
    Mutex.lock mu;
    contributors := List.remove_assoc name !contributors;
    Mutex.unlock mu

  let sanitize s =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
        | _ -> '_')
      s

  let write_file path body =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_string oc body)

  let verdicts_json ~reason =
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\n";
    Buffer.add_string b (Printf.sprintf "  \"reason\": \"%s\",\n" reason);
    Buffer.add_string b
      (Printf.sprintf "  \"at_ns\": %d,\n" (Nowa_util.Clock.now_ns ()));
    (match Atomic.get last_status with
    | None -> Buffer.add_string b "  \"scan\": null,\n  \"workers\": [],\n"
    | Some st ->
      Buffer.add_string b
        (Printf.sprintf
           "  \"engine\": \"%s\",\n  \"scan\": %d,\n  \"interval_ms\": %d,\n"
           st.engine st.scan st.interval_ms);
      Buffer.add_string b "  \"workers\": [\n";
      Array.iteri
        (fun i r ->
          Buffer.add_string b
            (Printf.sprintf
               "    {\"id\": %d, \"pool\": %S, \"worker\": %d, \"state\": \
                \"%s\", \"progress\": %d, \"quiet_scans\": %d}%s\n"
               r.gworker r.pool r.worker (wstate_name r.state) r.progress
               r.quiet_scans
               (if i = Array.length st.rows - 1 then "" else ",")))
        st.rows;
      Buffer.add_string b "  ],\n");
    Mutex.lock log_mu;
    let log = !verdict_log in
    Mutex.unlock log_mu;
    Buffer.add_string b "  \"verdicts\": [\n";
    List.iteri
      (fun i (scan, v) ->
        Buffer.add_string b
          (Printf.sprintf "    {\"scan\": %d, \"verdict\": %s}%s\n" scan
             (verdict_to_json v)
             (if i = List.length log - 1 then "" else ",")))
      log;
    Buffer.add_string b "  ]\n}\n";
    Buffer.contents b

  (** Write a postmortem bundle; returns the directory written.  Always
      contains [verdicts.json] (per-worker table + verdict history) and
      [metrics.prom] (full registry exposition); contributors add the
      frozen trace window and anatomy tail when their layers are live. *)
  let dump ~reason () =
    let n = Atomic.fetch_and_add seq 1 in
    let dir =
      Nowa_util.Artifacts.path
        (Printf.sprintf "health-%s-%03d" (sanitize reason) n)
    in
    (try Unix.mkdir dir 0o755
     with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
    write_file (Filename.concat dir "verdicts.json") (verdicts_json ~reason);
    write_file
      (Filename.concat dir "metrics.prom")
      (Nowa_obs.Expose.to_prometheus ());
    Mutex.lock mu;
    let cs = !contributors in
    Mutex.unlock mu;
    List.iter (fun (_, f) -> try f ~dir with _ -> ()) cs;
    dir
end

let dumps : string list ref = ref [] (* bundle dirs written, newest first *)

let dump_now ~reason =
  let dir = Recorder.dump ~reason () in
  Mutex.lock log_mu;
  dumps := dir :: !dumps;
  Mutex.unlock log_mu;
  dir

let dumped () =
  Mutex.lock log_mu;
  let d = !dumps in
  Mutex.unlock log_mu;
  d

(* --- the watchdog monitor ------------------------------------------------ *)

module Monitor = struct
  type handle = { stop : bool Atomic.t; dom : unit Domain.t }

  let live_count = Atomic.make 0
  let started_count = Atomic.make 0
  let live () = Atomic.get live_count
  let started_total () = Atomic.get started_count

  (* Cap bundles per monitor lifetime: the first verdicts are the
     interesting ones; a persistent anomaly must not fill the disk. *)
  let max_dumps = 3

  let scan_once ~probe ~stall_scans ~interval_ms ~scan ~prev ~quiet ~starved =
    let nw = probe.workers in
    let any_progress = ref false in
    (* Once the pool starts draining, workers exit their domains and
       their counters freeze legitimately; suspend stall/starvation
       classification rather than misread shutdown as a wedge. *)
    let draining = try probe.draining () with _ -> false in
    let rows =
      Array.init nw (fun w ->
          let p = probe.progress w in
          let parked = probe.announced w || probe.waiting w in
          let progressed = p <> prev.(w) in
          prev.(w) <- p;
          if progressed then any_progress := true;
          quiet.(w) <- (if parked || progressed || draining then 0 else quiet.(w) + 1);
          let state =
            if parked then Parked
            else if quiet.(w) >= stall_scans then Stalled
            else Active
          in
          let pool, lw = try probe.pool_of w with _ -> ("main", w) in
          { pool; worker = lw; gworker = w; state; progress = p;
            quiet_scans = quiet.(w) })
    in
    (* Worker stall verdicts fire once, on the scan that crosses the
       threshold; the row keeps saying Stalled until progress resumes. *)
    let stalls =
      Array.to_list rows
      |> List.filter_map (fun r ->
             if r.state = Stalled && r.quiet_scans = stall_scans then
               Some
                 (Worker_stalled
                    { pool = r.pool; worker = r.worker;
                      scans = r.quiet_scans })
             else None)
    in
    let ready = try probe.ready () with _ -> 0 in
    let starvation =
      if ready > 0 && (not draining) && (not !any_progress)
         && probe.sleepers () > 0
      then begin
        starved := !starved + 1;
        if !starved = stall_scans then
          [ Starvation { ready; scans = !starved } ]
        else []
      end
      else begin
        starved := 0;
        []
      end
    in
    let aux = poll_sources () in
    let vs = stalls @ starvation @ aux in
    let n_parked = Array.fold_left
        (fun a r -> if r.state = Parked then a + 1 else a) 0 rows in
    let n_stalled = Array.fold_left
        (fun a r -> if r.state = Stalled then a + 1 else a) 0 rows in
    Nowa_obs.Gauge.set g_active (nw - n_parked - n_stalled);
    Nowa_obs.Gauge.set g_parked n_parked;
    Nowa_obs.Gauge.set g_stalled n_stalled;
    Nowa_obs.Gauge.set g_last_scan (Nowa_util.Clock.now_ns ());
    Nowa_obs.Counter.incr c_scans;
    if vs <> [] then Nowa_obs.Counter.add c_verdicts (List.length vs);
    record_verdicts scan vs;
    Atomic.set last_status
      (Some
         {
           engine = probe.engine;
           scan;
           at_ns = Nowa_util.Clock.now_ns ();
           interval_ms;
           rows;
           scan_verdicts = vs;
         });
    vs

  let loop ~interval_ms ~stall_scans ~dump probe stop () =
    let nw = probe.workers in
    let prev = Array.init nw probe.progress in
    let quiet = Array.make nw 0 in
    let starved = ref 0 in
    let scan = ref 0 in
    let dumped_here = ref 0 in
    Atomic.incr live_count;
    Fun.protect
      ~finally:(fun () -> Atomic.decr live_count)
      (fun () ->
        while not (Atomic.get stop) do
          Unix.sleepf (float_of_int interval_ms /. 1000.0);
          if not (Atomic.get stop) then begin
            incr scan;
            let vs =
              scan_once ~probe ~stall_scans ~interval_ms ~scan:!scan ~prev
                ~quiet ~starved
            in
            if vs <> [] && dump && !dumped_here < max_dumps then begin
              incr dumped_here;
              ignore (dump_now ~reason:(verdict_kind (List.hd vs)))
            end
          end
        done)

  (** Start a monitor thread for this pool.  Resets the published status
      and verdict log: a new run starts with a clean slate. *)
  let spawn ~interval_ms ~stall_scans ~dump probe =
    Atomic.set last_status None;
    Mutex.lock log_mu;
    verdict_log := [];
    dumps := [];
    Mutex.unlock log_mu;
    Atomic.incr started_count;
    let stop = Atomic.make false in
    let interval_ms = Int.max 1 interval_ms in
    let stall_scans = Int.max 1 stall_scans in
    let dom = Domain.spawn (loop ~interval_ms ~stall_scans ~dump probe stop) in
    { stop; dom }

  let stop h =
    Atomic.set h.stop true;
    Domain.join h.dom
end

(* --- endpoints ----------------------------------------------------------- *)

(** Liveness verdict for [/healthz]: healthy unless the last scan raised
    or sustained an anomaly, any verdict was recorded this run (sticky:
    a replica that tripped the watchdog stays suspect until the next
    monitor lifecycle resets the log — load balancers rotate it out and
    operators read /statusz and the bundle), or the monitor itself
    stopped scanning (last scan older than 4 intervals while a monitor
    is supposed to be live). *)
let healthz () =
  match Atomic.get last_status with
  | None -> (true, "ok (no watchdog scan yet)")
  | Some st ->
    let stalled =
      Array.fold_left
        (fun a r -> if r.state = Stalled then a + 1 else a)
        0 st.rows
    in
    let logged =
      Mutex.lock log_mu;
      let l = !verdict_log in
      Mutex.unlock log_mu;
      l
    in
    if st.scan_verdicts <> [] then
      ( false,
        String.concat "; " (List.map verdict_to_string st.scan_verdicts) )
    else if stalled > 0 then
      (false, Printf.sprintf "%d worker(s) stalled" stalled)
    else
      match logged with
      | (scan, v) :: _ ->
        ( false,
          Printf.sprintf "anomaly this run (scan %d): %s" scan
            (verdict_to_string v) )
      | [] ->
        let age_ns = Nowa_util.Clock.now_ns () - st.at_ns in
        if Monitor.live () > 0 && age_ns > 4 * st.interval_ms * 1_000_000 then
          (false, Printf.sprintf "watchdog wedged: last scan %dms ago"
             (age_ns / 1_000_000))
        else (true, "ok")

(** Text status page for [/statusz]: engine, scan cadence, per-worker
    state table, and the verdict history of the current run. *)
let statusz () =
  let b = Buffer.create 512 in
  (match Atomic.get last_status with
  | None -> Buffer.add_string b "watchdog: no scan recorded\n"
  | Some st ->
    Buffer.add_string b
      (Printf.sprintf "watchdog: engine=%s scan=%d interval=%dms monitors=%d\n"
         st.engine st.scan st.interval_ms (Monitor.live ()));
    Buffer.add_string b "pool        worker  state    progress   quiet_scans\n";
    Array.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf "%-11s %-7d %-8s %-10d %d\n" r.pool r.worker
             (wstate_name r.state) r.progress r.quiet_scans))
      st.rows);
  Mutex.lock log_mu;
  let log = !verdict_log in
  let ds = !dumps in
  Mutex.unlock log_mu;
  if log = [] then Buffer.add_string b "verdicts: none\n"
  else begin
    Buffer.add_string b (Printf.sprintf "verdicts (%d):\n" (List.length log));
    List.iter
      (fun (scan, v) ->
        Buffer.add_string b
          (Printf.sprintf "  scan %d: %s\n" scan (verdict_to_string v)))
      log
  end;
  List.iter
    (fun d -> Buffer.add_string b (Printf.sprintf "bundle: %s\n" d))
    ds;
  Buffer.contents b
