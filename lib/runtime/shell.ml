(** The scheduler shell: everything around [spawn]/[sync] that the
    paper's evaluation does not vary between platforms.  Sections II-B
    and V vary three things — the stealing scheme, the deque and the
    join counter — and each engine family keeps exactly those:
    {!Engine} (continuation stealing), {!Child_engine} (child stealing)
    and {!Central_engine} (one locked queue per pool) each supply a
    small {!POLICY}.  The shell owns the rest, once:

    - the pools ({!group}: slice, sleepers, gate-counted inject queue,
      idle policy, sweep width) and the run's {!cluster};
    - routed roots: [spawn_on]/[spawn_unit_on] and their wake path;
    - the idle path: spin → yield → park ([worker_loop]), the park
      protocol ([park_round]) and its pre-park sweep ([sweep_all]),
      whose caller order the [sleeper]/[spillover]/[watchdog_park]
      model-check harnesses replay over the real [Sleepers];
    - cross-pool spill-over;
    - [run]'s lifecycle: topology, trace rings, heartbeats, metrics
      publication, the flight recorder, the watchdog probe, domain
      spawn/join/teardown and result capture.

    The spawn/sync hot path never calls into the shell: the family owns
    the per-worker record and its domain-local slot, and the shell
    reaches a worker's id, pool, counters and ring through the policy. *)

module Ring = Nowa_trace.Ring

(* One named micropool: a contiguous slice of the global worker array
   with its own sleeper registry (local ids), its own inject queue for
   [spawn_on]-routed roots, and its own idle/steal knobs.  The
   single-pool topology builds exactly one of these. *)
type 'task group = {
  gid : int;
  gname : string;
  glo : int;  (* first global worker id of this pool *)
  ghi : int;  (* one past the last *)
  gsleepers : Sleepers.t;  (* indexed by pool-local worker id *)
  ginject : 'task Nowa_deque.Central_queue.t;
      (* routed roots; FIFO per target pool *)
  ggate : int Atomic.t;
      (* conservative inject count: raised before a push, lowered after
         a pop, so 0 proves the queue empty and idle workers skip the
         queue lock entirely *)
  gidle : Config.idle_policy;
  gsweep : int;
}

(* One run.  [ext] is the family's own per-run state: the continuation-
   stealing engine's stack pool, the central engine's per-pool queues. *)
type ('task, 'worker, 'ext) cluster = {
  conf : Config.t;
  workers : 'worker array;  (* all pools, global ids *)
  groups : 'task group array;
  spill : bool;  (* cross-pool spill-over stealing enabled *)
  finished : bool Atomic.t;
  hb : Health.Beats.t;  (* per-worker heartbeat words; watchdog input *)
  ext : 'ext;
}

(* Take one routed root from a pool's inject queue.  The gate read
   keeps the common empty case lock-free: the gate is raised before the
   push, so 0 proves emptiness. *)
let try_inject g =
  if Atomic.get g.ggate = 0 then None
  else
    match Nowa_deque.Central_queue.pop g.ginject with
    | Some _ as r ->
      Atomic.decr g.ggate;
      r
    | None -> None

(* The first hit of [f] over every pool but [g], scanned round-robin
   from the next pool over. *)
let foreign cl g f =
  let ng = Array.length cl.groups in
  let rec go k =
    if k >= ng - 1 then None
    else
      match f cl.groups.((g.gid + 1 + k) mod ng) with
      | Some _ as r -> r
      | None -> go (k + 1)
  in
  go 0

(* The victim loops below run on every idle round, so they allocate
   nothing: the family's probe and start functions are closed top-level
   functions that take the cluster and the thief as arguments, and the
   loops are top-level recursions rather than local closures.  An
   allocating idle loop triggers extra minor collections, each a
   stop-the-world pause for the busy workers too. *)

let rec mates_from g ~lid ~n ~sweep ~start attempt cl w i =
  if i >= sweep then begin
    Nowa_obs.Histogram.observe Metrics.sweep_length sweep;
    None
  end
  else
    match attempt cl w ~sweep (g.glo + ((lid + 1 + ((start + i) mod (n - 1))) mod n)) with
    | Some _ as r ->
      Nowa_obs.Histogram.observe Metrics.sweep_length (i + 1);
      r
    | None -> mates_from g ~lid ~n ~sweep ~start attempt cl w (i + 1)

(* Steal round inside [w]'s own pool [g] ([self] is [w]'s global id):
   up to [gsweep] distinct pool-mates before the round counts as
   failed.  Victims are offsets in [0, n-2] rotated past the thief's
   local id, so the sweep never probes itself and never repeats a
   victim.  [start cl w ~mates ~sweep] picks the first offset;
   [attempt cl w ~sweep v] probes global worker [v]. *)
let sweep_mates g ~self ~start attempt cl w =
  let n = g.ghi - g.glo in
  if n = 1 then None
  else begin
    let sweep = min (max 1 g.gsweep) (n - 1) in
    let start = start cl w ~mates:(n - 1) ~sweep in
    mates_from g ~lid:(self - g.glo) ~n ~sweep ~start attempt cl w 0
  end

let rec victims_from g ~n ~count ~start attempt cl w i =
  if i >= count then None
  else
    match attempt cl w (g.glo + ((start + i) mod n)) with
    | Some _ as r -> r
    | None -> victims_from g ~n ~count ~start attempt cl w (i + 1)

(* Victims of a per-pool probe of [g], as global ids, each probed with
   [attempt cl w v].  [exhaustive] (the pre-park sweep) visits every
   worker of [g] once, from [self]'s own slot on; otherwise (spill-over)
   up to [sweep] from a random slot. *)
let probe_victims g ~exhaustive ~self ~rng ~sweep attempt cl w =
  let n = g.ghi - g.glo in
  if exhaustive then
    let start = if self >= g.glo && self < g.ghi then self - g.glo else 0 in
    victims_from g ~n ~count:n ~start attempt cl w 0
  else
    victims_from g ~n ~count:(min (max 1 sweep) n)
      ~start:(Nowa_util.Xoshiro.int rng n) attempt cl w 0

(** What an engine family supplies.  Every function here runs off the
    spawn/sync hot path: per scheduling round, per task, or per run. *)
module type POLICY = sig
  val name : string

  type task
  type worker
  type ext

  val current :
    ((task, worker, ext) cluster * worker) option Domain.DLS.key
  (** The family's domain-local worker slot; [run] sets it on every
      worker domain. *)

  val id : worker -> int
  val group : worker -> task group
  val metrics : worker -> Metrics.worker
  val ring : worker -> Ring.t

  val make_ext : Config.t -> task group array -> ext

  val make_worker :
    Config.t -> ext -> Topology.spec -> id:int -> task group ->
    Metrics.worker -> Ring.t -> worker

  val task_of_thunk : (unit -> unit) -> task
  (** A root or routed thunk as a runnable task (the thunk never
      raises).  Continuation stealing runs it under its effect handler. *)

  val take : (task, worker, ext) cluster -> worker -> task option
  (** One scheduling round inside the worker's own pool: own work, then
      the pool's inject queue ({!try_inject}), then pool-mates. *)

  val probe :
    (task, worker, ext) cluster -> worker -> task group ->
    exhaustive:bool -> task option
  (** Look for work in one pool's deques or queue (not its inject
      queue).  [exhaustive] is the pre-park sweep: it must use real,
      synchronising steal operations and leave no victim unprobed.
      Otherwise it is a spill-over probe of a foreign pool. *)

  val run_task : (task, worker, ext) cluster -> worker -> task -> unit

  val ready : (task, worker, ext) cluster -> int
  (** Queued tasks outside the inject queues, for the watchdog. *)

  val stack_stats : ((task, worker, ext) cluster -> Metrics.stack_stats) option

  val after_join : (task, worker, ext) cluster -> unit
  (** Runs once the helper domains have joined, before the run is
      timed and reported. *)
end

module Make (P : POLICY) : sig
  type pool = P.task group

  val find : (P.task, P.worker, P.ext) cluster -> P.worker -> P.task option
  (** [take], then spill-over when enabled: what an idle worker runs. *)

  val run : ?conf:Config.t -> (unit -> 'a) -> 'a
  val last_metrics : unit -> Metrics.t option
  val last_trace : unit -> Nowa_trace.Trace.t option
  val find_pool : string -> pool option
  val pool : string -> pool
  val pool_name : pool -> string
  val self_pool : unit -> string
  val spawn_on : pool -> (unit -> 'a) -> 'a Promise.t
  val spawn_unit_on : pool -> (unit -> unit) -> unit
end = struct
  module Ev = Nowa_trace.Event

  type pool = P.task group

  let get_current () =
    match Domain.DLS.get P.current with
    | Some pw -> pw
    | None -> failwith (P.name ^ ": spawn/sync/scope used outside of run")

  (* Cross-pool spill-over (behind [Config.spill_over]): only reached
     when the worker's own pool — own work, inject queue and pool-mates
     — came up empty, so local work always wins over foreign work.
     Within each foreign pool the inject queue goes first: routed roots
     have no other runner. *)
  let find cl w =
    match P.take cl w with
    | Some _ as r -> r
    | None ->
      if not cl.spill then None
      else
        foreign cl (P.group w) (fun g ->
            match try_inject g with
            | Some _ as r -> r
            | None -> P.probe cl w g ~exhaustive:false)

  (* Pre-park re-check of one pool: every deque or queue with real
     steal operations, then the inject queue.  Size reads would not do —
     the locked deque's [size] reads plain fields without the lock —
     whereas a steal synchronises on every implementation.  Because the
     caller has already announced its sleeper bit, sequential
     consistency gives: any task pushed before the pusher's registry
     load is visible to this sweep, or was taken by a racing thief that
     is itself awake and holding work. *)
  let sweep_group cl w g =
    match P.probe cl w g ~exhaustive:true with
    | Some _ as r -> r
    | None -> try_inject g

  (* With spill-over on, this worker may be the last one awake that
     could ever run a foreign pool's pending work, so the pre-park sweep
     covers the foreign pools too — same lost-wakeup argument, one
     registry per pool. *)
  let sweep_all cl w =
    let g = P.group w in
    match sweep_group cl w g with
    | Some _ as r -> r
    | None -> if cl.spill then foreign cl g (sweep_group cl w) else None

  (* One park round: announce, re-check everything, then either run what
     the re-check found, bail out on shutdown, or block until a pusher
     posts a token.  Returns work if the re-check produced any. *)
  let park_round cl w =
    let id = P.id w and g = P.group w and m = P.metrics w and tr = P.ring w in
    Health.Beats.beat cl.hb id;
    let lid = id - g.glo in
    ignore (Sleepers.announce g.gsleepers ~worker:lid);
    let cancel () =
      if not (Sleepers.cancel g.gsleepers ~worker:lid) then
        (* A waker claimed our bit first: its token is in flight and the
           next park will consume it immediately. *)
        m.Metrics.wake_retries <- m.Metrics.wake_retries + 1
    in
    match sweep_all cl w with
    | Some _ as r ->
      cancel ();
      r
    | None ->
      if Atomic.get cl.finished then cancel ()
      else begin
        m.Metrics.parks <- m.Metrics.parks + 1;
        Ring.emit tr Ev.Park 0;
        let t0 = Nowa_util.Clock.now_ns () in
        Sleepers.park g.gsleepers ~worker:lid;
        Health.Beats.beat cl.hb id;
        m.Metrics.parked_ns <- m.Metrics.parked_ns + (Nowa_util.Clock.now_ns () - t0);
        Ring.emit tr Ev.Unpark 0
      end;
      None

  (* Three-phase elastic idle path: [spin_budget] rounds of pure
     spinning (one backoff step every [Config.steal_attempts] failed
     rounds), the same again yielding the OS timeslice each round, then
     parking.  [finished] is checked on every iteration of every phase,
     and shutdown wakes all parked workers, so exit is prompt in all
     phases.  No mask-width guard: [Topology.of_config] (backed by
     [Sleepers.create]) rejects pools wider than the registry, so every
     local id can park. *)
  let worker_loop cl w =
    let bo = Nowa_util.Backoff.make () in
    let spin_budget, can_park =
      match (P.group w).gidle with
      | Config.Spin -> (max_int, false)
      | Config.Yield_after n -> (max 1 n, false)
      | Config.Park_after n -> (max 1 n, true)
    in
    let rounds = ref 0 in
    let rec go () =
      if Atomic.get cl.finished then ()
      else
        match find cl w with
        | Some t ->
          Nowa_util.Backoff.reset bo;
          rounds := 0;
          P.run_task cl w t;
          go ()
        | None ->
          incr rounds;
          if !rounds <= spin_budget then begin
            if !rounds mod cl.conf.Config.steal_attempts = 0 then
              Nowa_util.Backoff.once bo;
            go ()
          end
          else if (not can_park) || !rounds <= 2 * spin_budget then begin
            Unix.sleepf 0.0;
            go ()
          end
          else begin
            (match park_round cl w with
            | Some t ->
              Nowa_util.Backoff.reset bo;
              P.run_task cl w t
            | None -> ());
            (* Fresh spin phase after an unpark (work just appeared) or
               a shutdown wake (the [finished] check above exits). *)
            Nowa_util.Backoff.reset bo;
            rounds := 0;
            go ()
          end
    in
    go ()

  (* The last run's report, behind the [last_*] accessors of
     {!Runtime_intf.S} (one pair per instantiated runtime). *)
  let last_metrics_ref = ref None
  let last_metrics () = !last_metrics_ref
  let last_trace_ref = ref None
  let last_trace () = !last_trace_ref

  (* Pool-aware watchdog probe: sleeper registries are per pool and
     keyed by local ids, so every accessor translates the global index
     through the worker's group — two pools' worker 0s never alias into
     one sleeper slot or one verdict row. *)
  let start_watchdog cl =
    let conf = cl.conf in
    Runtime_guard.start_monitor (fun () ->
        let grp i = P.group cl.workers.(i) in
        let lid i = i - (grp i).glo in
        let sum f = Array.fold_left (fun acc g -> acc + f g) 0 cl.groups in
        let probe =
          {
            Health.engine = P.name;
            workers = Array.length cl.workers;
            pool_of = (fun i -> ((grp i).gname, lid i));
            beat_of = (fun i -> Health.Beats.read cl.hb i);
            announced = (fun i -> Sleepers.announced (grp i).gsleepers ~worker:(lid i));
            waiting = (fun i -> Sleepers.waiting (grp i).gsleepers ~worker:(lid i));
            wake_stamp = (fun i -> Sleepers.wake_stamp (grp i).gsleepers ~worker:(lid i));
            ready = (fun () -> P.ready cl + sum (fun g -> Atomic.get g.ggate));
            sleepers = (fun () -> sum (fun g -> Sleepers.sleepers g.gsleepers));
            draining = (fun () -> Atomic.get cl.finished);
          }
        in
        let h =
          Health.Monitor.spawn ~interval_ms:conf.Config.watchdog_interval_ms
            ~stall_scans:conf.Config.watchdog_stall_scans
            ~dump:conf.Config.watchdog_dump probe
        in
        fun () -> Health.Monitor.stop h)

  let run ?conf main =
    let conf = match conf with Some c -> c | None -> Config.default () in
    (* Validate the pool topology before entering the runtime guard so a
       bad configuration raises without leaking guard state. *)
    let specs = Topology.of_config conf in
    let nw = Topology.total specs in
    let conf = { conf with Config.workers = nw } in
    Runtime_guard.enter P.name;
    Runtime_log.Log.debug (fun m ->
        m "%s: starting %d workers in %d pool(s)" P.name nw (Array.length specs));
    let trace =
      if conf.Config.trace_capacity > 0 then
        Some
          (Nowa_trace.Trace.create ~workers:nw
             ~capacity:conf.Config.trace_capacity ())
      else None
    in
    let ring_for i =
      match trace with Some t -> Nowa_trace.Trace.worker t i | None -> Ring.disabled
    in
    let groups =
      Array.mapi
        (fun gi (s : Topology.spec) ->
          {
            gid = gi;
            gname = s.Topology.name;
            glo = s.Topology.lo;
            ghi = s.Topology.hi;
            gsleepers = Sleepers.create ~workers:(s.Topology.hi - s.Topology.lo);
            ginject = Nowa_deque.Central_queue.create ();
            ggate = Nowa_util.Padding.atomic 0;
            gidle = s.Topology.idle;
            gsweep = s.Topology.sweep;
          })
        specs
    in
    let ext = P.make_ext conf groups in
    let cl =
      {
        conf;
        groups;
        spill = conf.Config.spill_over;
        finished = Atomic.make false;
        hb =
          (if conf.Config.heartbeats then Health.Beats.create ~workers:nw
           else Health.Beats.disabled);
        ext;
        workers =
          Array.init nw (fun i ->
              let gi = Topology.group_of specs i in
              let g = groups.(gi) in
              P.make_worker conf ext specs.(gi) ~id:i g
                (Metrics.make_worker ~pool:g.gname i)
                (ring_for i));
      }
    in
    let metrics () = Array.map P.metrics cl.workers in
    let stack_stats = Option.map (fun f () -> f cl) P.stack_stats in
    (* Expose this run's counters live: scrapes read the worker records
       and the stack getters while the computation runs. *)
    Metrics.publish ?stacks:stack_stats (metrics ());
    (* Flight-recorder contributor: freeze the live rings' most recent
       window into a Perfetto file inside the bundle.  Registered even
       though the watchdog may be off — an explicit dump wants it too. *)
    (match trace with
    | Some t ->
      Health.Recorder.register ~name:"trace" (fun ~dir ->
          let evs, _dropped = Nowa_trace.Trace.freeze ~window:4096 t in
          Nowa_trace.Perfetto.write_events_file (Filename.concat dir "trace.json") evs)
    | None -> Health.Recorder.unregister ~name:"trace");
    if conf.Config.watchdog_interval_ms > 0 then start_watchdog cl;
    let result = ref None in
    let wake_everyone () =
      Array.iter (fun g -> Sleepers.wake_all g.gsleepers) cl.groups
    in
    let root =
      P.task_of_thunk (fun () ->
          (match main () with
          | v -> result := Some (Ok v)
          | exception e -> result := Some (Error e));
          Atomic.set cl.finished true;
          wake_everyone ())
    in
    let enter w =
      Domain.DLS.set P.current (Some (cl, w));
      Nowa_trace.Current.set ~worker:(P.id w) (P.ring w)
    in
    let leave () =
      Domain.DLS.set P.current None;
      Nowa_trace.Current.clear ()
    in
    let t0 = Unix.gettimeofday () in
    let domains =
      List.init (nw - 1) (fun i ->
          let w = cl.workers.(i + 1) in
          Domain.spawn (fun () ->
              enter w;
              Fun.protect ~finally:leave (fun () -> worker_loop cl w)))
    in
    let w0 = cl.workers.(0) in
    enter w0;
    let joined = ref false in
    let join_all () =
      if not !joined then begin
        joined := true;
        (* Make sure helper domains can terminate even if worker 0 died
           on a scheduler bug; parked workers need the explicit wake. *)
        Atomic.set cl.finished true;
        wake_everyone ();
        List.iter Domain.join domains
      end
    in
    let teardown () =
      leave ();
      join_all ();
      Runtime_guard.exit ()
    in
    (* One teardown order for every family: join, the family's post-join
       hook, then time the run and report.  Only joined domains leave
       the rings and counters quiescent, safe to hand out. *)
    Fun.protect ~finally:teardown (fun () ->
        P.run_task cl w0 root;
        worker_loop cl w0;
        join_all ();
        P.after_join cl;
        let elapsed = Unix.gettimeofday () -. t0 in
        Runtime_log.Log.debug (fun m ->
            m "%s: computation finished in %.6f s" P.name elapsed);
        last_trace_ref := trace;
        if conf.Config.collect_metrics then
          last_metrics_ref :=
            Some
              (Metrics.make
                 ?stacks:(Option.map (fun f -> f ()) stack_stats)
                 (metrics ()) ~elapsed_s:elapsed));
    match !result with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None -> assert false

  (* -- pool routing --------------------------------------------------- *)

  let find_pool pname =
    let cl, _ = get_current () in
    Array.find_opt (fun g -> String.equal g.gname pname) cl.groups

  let pool pname =
    match find_pool pname with
    | Some g -> g
    | None ->
      invalid_arg
        (Printf.sprintf "%s: unknown pool %S (configure it in Config.pools)"
           P.name pname)

  let pool_name (g : pool) = g.gname
  let self_pool () = (P.group (snd (get_current ()))).gname

  (* Wake path for a routed root: the target pool's registry first; with
     spill-over on and no local sleeper, any foreign sleeper will do —
     the pre-park sweep covers foreign inject queues, and this closes
     the window where every potential runner is already parked. *)
  let wake_routed cl w (g : pool) =
    let wake g = if Sleepers.wake_one g.gsleepers then Some () else None in
    let woke =
      match wake g with
      | Some () -> true
      | None -> cl.spill && Option.is_some (foreign cl g wake)
    in
    if woke then
      let m = P.metrics w in
      m.Metrics.wakeups <- m.Metrics.wakeups + 1

  let enqueue_routed (g : pool) f =
    let cl, w = get_current () in
    let t = P.task_of_thunk f in
    (* Gate up before the push so a zero gate proves an empty queue. *)
    Atomic.incr g.ggate;
    Nowa_deque.Central_queue.push g.ginject t;
    wake_routed cl w g

  let spawn_on (g : pool) thunk =
    let p = Promise.make_remote () in
    enqueue_routed g (fun () ->
        match thunk () with
        | v -> Promise.fill_remote p v
        | exception e -> Promise.fill_remote_exn p e);
    p

  let spawn_unit_on (g : pool) thunk =
    enqueue_routed g (fun () ->
        try thunk ()
        with e ->
          Runtime_log.Log.err (fun m ->
              m "%s: spawn_unit_on %S task raised %s" P.name g.gname
                (Printexc.to_string e)))
end
