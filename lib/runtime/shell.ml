(** The scheduler shell: everything around [spawn]/[sync] that the
    paper's evaluation does not vary between platforms.  Sections II-B
    and V vary three things — the stealing scheme, the deque and the
    join counter — and each engine family keeps exactly those:
    {!Engine} (continuation stealing) and {!Child_engine} (the
    help-first join over per-worker deques or one FIFO per pool) each
    supply a small {!POLICY}.  The shell owns the rest, once:

    - the pools ({!group}: slice, sleepers, lock-free routed queue) and
      the run's {!cluster};
    - routed roots: [spawn_on]/[spawn_unit_on], their queue and their
      wake path;
    - the idle path: spin → yield → park ([worker_loop]), the park
      protocol ([park_round]) and its pre-park sweep ([sweep_all]),
      whose caller order the [sleeper]/[spillover]/[watchdog_park]
      model-check harnesses replay over the real [Sleepers] and
      [Inject_queue];
    - cross-pool spill-over;
    - [run]'s lifecycle: topology, trace rings, metrics publication,
      the flight recorder, the watchdog probe, domain
      spawn/join/teardown, result capture and the count of routed roots
      left queued at shutdown.

    The spawn/sync hot path never calls into [Make]: the family owns
    the per-worker record and its domain-local slot, and the shell
    reaches a worker's id, pool, counters and ring through the policy. *)

module Ring = Nowa_trace.Ring

(* The shell's station points (park, idle round, routed push, wake) are
   off the spawn/sync path: [add] bumps a worker's counter of kind [k] by
   [n], and [station] counts one and emits [k]'s event. *)
let[@inline] add c k n =
  let i = Metrics.index k in
  Array.unsafe_set c i (Array.unsafe_get c i + n)

let station c tr k =
  add c k 1;
  match Metrics.table.(Metrics.index k).event with
  | Some e -> Ring.emit tr e 0
  | None -> ()

(* One named micropool: a contiguous slice of the global worker array
   with its own sleeper registry (local ids) and its own queue of
   [spawn_on]-routed roots.  The single-pool topology builds exactly one
   of these. *)
type group = {
  gid : int;
  gname : string;
  glo : int;  (* first global worker id of this pool *)
  ghi : int;  (* one past the last *)
  gsleepers : Sleepers.t;  (* indexed by pool-local worker id *)
  ginject : (unit -> unit) Nowa_deque.Inject_queue.t;
      (* routed roots as the caller's bare thunks, FIFO *)
}

(* Initial capacity of every worker's deque.  The growing deques double
   from here; ABP ([nowa-abp]) cannot grow and keeps exactly this many
   slots. *)
let deque_capacity = 256

(* One run.  [ext] is the family's own per-run state: the continuation-
   stealing engine's stack pool, gomp's per-pool FIFOs. *)
type ('worker, 'ext) cluster = {
  conf : Config.t;
  workers : 'worker array;  (* all pools, global ids *)
  groups : group array;
  spill : bool;  (* cross-pool spill-over stealing enabled *)
  finished : bool Atomic.t;
  ext : 'ext;
}

(* Never pushed: what a pool's routed queue answers when it is empty. *)
let no_root () = ()

(* Take one routed root from a pool's queue, as a task of the consuming
   worker [w] ([task_of_thunk] is the family's {!POLICY.task_of_thunk}).
   An empty queue costs two loads and no write; a hit allocates only
   the returned option. *)
let try_inject g task_of_thunk w =
  let f = Nowa_deque.Inject_queue.pop_or g.ginject no_root in
  if f == no_root then None else Some (task_of_thunk w f)

(* A [spawn_unit_on] root that raised: there is no scope to re-raise it
   in, so the engine that ran it logs it here and goes on. *)
let routed_raised ~runtime g e =
  Runtime_log.Log.err (fun m ->
      m "%s: spawn_unit_on %S task raised %s" runtime g.gname
        (Printexc.to_string e))

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
   functions that take the cluster and the thief as arguments, the
   loops are top-level recursions, and [Xoshiro.int] keeps its state
   unboxed.  An allocating idle loop triggers extra minor collections,
   each a stop-the-world pause for the busy workers too. *)

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
   up to [Config.steal_sweep] distinct pool-mates before the round
   counts as failed.  Victims are offsets in [0, n-2] rotated past the
   thief's local id, so the sweep never probes itself and never repeats
   a victim.  [start cl w ~mates ~sweep] picks the first offset;
   [attempt cl w ~sweep v] probes global worker [v]. *)
let sweep_mates g ~self ~start attempt cl w =
  let n = g.ghi - g.glo in
  if n = 1 then None
  else begin
    let sweep = Int.min (Int.max 1 cl.conf.Config.steal_sweep) (n - 1) in
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
   up to [Config.steal_sweep] from a random slot. *)
let probe_victims g ~exhaustive ~self ~rng attempt cl w =
  let n = g.ghi - g.glo in
  if exhaustive then
    let start = if self >= g.glo && self < g.ghi then self - g.glo else 0 in
    victims_from g ~n ~count:n ~start attempt cl w 0
  else
    victims_from g ~n ~count:(Int.min (Int.max 1 cl.conf.Config.steal_sweep) n)
      ~start:(Nowa_util.Xoshiro.int rng n) attempt cl w 0

(** What an engine family supplies.  Every function here runs off the
    spawn/sync hot path: per scheduling round, per task, or per run. *)
module type POLICY = sig
  val name : string

  type task
  type worker
  type ext

  val current :
    ((worker, ext) cluster * worker) option Domain.DLS.key
  (** The family's domain-local worker slot; [run] sets it on every
      worker domain. *)

  val id : worker -> int
  val group : worker -> group
  val counts : worker -> int array  (* its [Metrics.worker.counts] *)
  val ring : worker -> Ring.t

  val make_ext : Config.t -> group array -> ext

  val make_worker :
    Config.t -> ext -> id:int -> group -> int array -> Ring.t -> worker

  val task_of_thunk : worker -> (unit -> unit) -> task
  (** A root or routed thunk as a task that the given worker runs next.
      The root thunk never raises; a [spawn_unit_on] thunk may, and the
      task catches and logs it ({!routed_raised}).  Continuation
      stealing fills the worker's recycled task box and runs it under
      its effect handler. *)

  val take : (worker, ext) cluster -> worker -> task option
  (** One scheduling round inside the worker's own pool: own work, then
      the pool's routed roots ({!try_inject}), then pool-mates. *)

  val probe :
    (worker, ext) cluster -> worker -> group -> exhaustive:bool ->
    task option
  (** Look for work in one pool's deques or FIFO (not its routed
      queue).  [exhaustive] is the pre-park sweep: it must use real,
      synchronising steal operations and leave no victim unprobed.
      Otherwise it is a spill-over probe of a foreign pool. *)

  val run_task : (worker, ext) cluster -> worker -> task -> unit

  val ready : (worker, ext) cluster -> int
  (** Queued tasks outside the routed queues, for the watchdog. *)

  val stack_stats : ((worker, ext) cluster -> Metrics.stack_stats) option

  val after_join : (worker, ext) cluster -> unit
  (** Runs once the helper domains have joined, before the run is
      timed and reported. *)
end

module Make (P : POLICY) : sig
  type pool = group

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

  type pool = group

  let get_current () =
    match Domain.DLS.get P.current with
    | Some pw -> pw
    | None -> failwith (P.name ^ ": spawn/sync/scope used outside of run")

  (* Cross-pool spill-over (behind [Config.spill_over]): only reached
     when the worker's own pool — own work, routed roots and pool-mates
     — came up empty, so local work always wins over foreign work.
     Within each foreign pool the routed queue goes first: routed roots
     have no other runner. *)
  let find cl w =
    match P.take cl w with
    | Some _ as r -> r
    | None ->
      if not cl.spill then None
      else
        foreign cl (P.group w) (fun g ->
            match try_inject g P.task_of_thunk w with
            | Some _ as r -> r
            | None -> P.probe cl w g ~exhaustive:false)

  (* Pre-park re-check of one pool: every deque or queue with real
     steal operations, then the routed queue.  Size reads would not do —
     the locked deque's [size] reads plain fields without the lock —
     whereas a steal synchronises on every implementation, and the
     routed queue's pop reads its head and link atomically.  Because the
     caller has already announced its sleeper bit, sequential
     consistency gives: any task pushed before the pusher's registry
     load is visible to this sweep, or was taken by a racing thief that
     is itself awake and holding work. *)
  let sweep_group cl w g =
    match P.probe cl w g ~exhaustive:true with
    | Some _ as r -> r
    | None -> try_inject g P.task_of_thunk w

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
    let g = P.group w and c = P.counts w and tr = P.ring w in
    let lid = P.id w - g.glo in
    ignore (Sleepers.announce g.gsleepers ~worker:lid);
    let cancel () =
      if not (Sleepers.cancel g.gsleepers ~worker:lid) then
        (* A waker claimed our bit first: its token is in flight and the
           next park will consume it immediately. *)
        add c Wake_retries 1
    in
    match sweep_all cl w with
    | Some _ as r ->
      cancel ();
      r
    | None ->
      if Atomic.get cl.finished then cancel ()
      else begin
        station c tr Parks;
        let t0 = Nowa_util.Clock.now_ns () in
        Sleepers.park g.gsleepers ~worker:lid;
        add c Parked_ns (Nowa_util.Clock.now_ns () - t0);
        Ring.emit tr Ev.Unpark 0
      end;
      None

  (* Failed steal rounds per backoff step while spinning. *)
  let steal_attempts = 4

  (* Three-phase elastic idle path: [spin_budget] rounds of pure
     spinning (one backoff step every [steal_attempts] failed
     rounds), the same again yielding the OS timeslice each round, then
     parking.  [finished] is checked on every iteration of every phase,
     and shutdown wakes all parked workers, so exit is prompt in all
     phases.  No mask-width guard: [Topology.of_config] (backed by
     [Sleepers.create]) rejects pools wider than the registry, so every
     local id can park.  An empty round is counted: it may make no steal
     attempt (a 1-worker pool), and the watchdog reads counters. *)
  let worker_loop cl w =
    let c = P.counts w in
    let bo = Nowa_util.Backoff.make () in
    let spin_budget, can_park =
      match cl.conf.Config.idle_policy with
      | Config.Spin -> (max_int, false)
      | Config.Yield_after n -> (Int.max 1 n, false)
      | Config.Park_after n -> (Int.max 1 n, true)
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
          add c Idle_rounds 1;
          if !rounds <= spin_budget then begin
            if !rounds mod steal_attempts = 0 then
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
  let probe cl (metrics : Metrics.worker array) =
    let grp i = P.group cl.workers.(i) in
    let lid i = i - (grp i).glo in
    let sum f = Array.fold_left (fun acc g -> acc + f g) 0 cl.groups in
    {
      Health.engine = P.name;
      workers = Array.length cl.workers;
      pool_of = (fun i -> ((grp i).gname, lid i));
      progress = (fun i -> Metrics.progress metrics.(i));
      announced = (fun i -> Sleepers.announced (grp i).gsleepers ~worker:(lid i));
      waiting = (fun i -> Sleepers.waiting (grp i).gsleepers ~worker:(lid i));
      ready =
        (fun () ->
          P.ready cl + sum (fun g -> Nowa_deque.Inject_queue.length g.ginject));
      sleepers = (fun () -> sum (fun g -> Sleepers.sleepers g.gsleepers));
      draining = (fun () -> Atomic.get cl.finished);
    }

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
        (* Tracks are named the way the watchdog keys its rows: pool and
           pool-local id. *)
        let name i =
          let s = specs.(Topology.group_of specs i) in
          Printf.sprintf "%s/%d" s.Topology.name (i - s.Topology.lo)
        in
        Some
          (Nowa_trace.Trace.create ~workers:nw ~names:(Array.init nw name)
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
            ginject = Nowa_deque.Inject_queue.create ();
          })
        specs
    in
    let ext = P.make_ext conf groups in
    let group i = groups.(Topology.group_of specs i) in
    let metrics = Array.init nw (fun i -> Metrics.make_worker ~pool:(group i).gname i) in
    let cl =
      {
        conf;
        groups;
        spill = conf.Config.spill_over;
        finished = Atomic.make false;
        ext;
        workers =
          Array.init nw (fun i ->
              P.make_worker conf ext ~id:i (group i) metrics.(i).Metrics.counts
                (ring_for i));
      }
    in
    let stack_stats = Option.map (fun f () -> f cl) P.stack_stats in
    (* Routed roots still queued once every worker has stopped: counted
       after the join, never run. *)
    let abandoned = ref 0 in
    (* Expose this run's counters live: scrapes read the worker records
       and the stack getters while the computation runs. *)
    Metrics.publish ?stacks:stack_stats ~routed_abandoned:(fun () -> !abandoned) metrics;
    (* Flight-recorder contributor: freeze the live rings' most recent
       window into a Perfetto file inside the bundle.  Registered even
       though the watchdog may be off — an explicit dump wants it too. *)
    (match trace with
    | Some t ->
      Health.Recorder.register ~name:"trace" (fun ~dir ->
          Nowa_trace.Perfetto.write_frozen_file ~window:4096
            (Filename.concat dir "trace.json") t)
    | None -> Health.Recorder.unregister ~name:"trace");
    Runtime_guard.watch conf (probe cl metrics);
    let result = ref None in
    let wake_everyone () =
      Array.iter (fun g -> Sleepers.wake_all g.gsleepers) cl.groups
    in
    let root () =
      (match main () with
      | v -> result := Some (Ok v)
      | exception e -> result := Some (Error e));
      Atomic.set cl.finished true;
      wake_everyone ()
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
        P.run_task cl w0 (P.task_of_thunk w0 root);
        worker_loop cl w0;
        join_all ();
        P.after_join cl;
        let elapsed = Unix.gettimeofday () -. t0 in
        Runtime_log.Log.debug (fun m ->
            m "%s: computation finished in %.6f s" P.name elapsed);
        abandoned :=
          Array.fold_left
            (fun acc g -> acc + Nowa_deque.Inject_queue.length g.ginject)
            0 cl.groups;
        if !abandoned > 0 then
          Runtime_log.Log.warn (fun m ->
              m "%s: %d routed roots were still queued when main returned; \
                 they did not run" P.name !abandoned);
        last_trace_ref := trace;
        last_metrics_ref :=
          Some
            (Metrics.make
               ?stacks:(Option.map (fun f -> f ()) stack_stats)
               ~routed_abandoned:!abandoned metrics ~elapsed_s:elapsed));
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
     the pre-park sweep covers foreign routed queues, and this closes
     the window where every potential runner is already parked.  It runs
     after the push, so a worker that announced before this load finds
     the root in its pre-park sweep. *)
  let wake_routed cl c (g : pool) =
    let wake g = if Sleepers.wake_one g.gsleepers then Some () else None in
    let woke =
      match wake g with
      | Some () -> true
      | None -> cl.spill && Option.is_some (foreign cl g wake)
    in
    if woke then add c Wakeups 1

  (* The caller's thunk goes into the queue as it is: one node, no
     wrapper.  The engine that runs it catches its exception.  The push
     is counted in the caller's record: a loop that only routes reaches
     no other station point. *)
  let spawn_unit_on (g : pool) thunk =
    let cl, w = get_current () in
    let c = P.counts w in
    add c Routed 1;
    Nowa_deque.Inject_queue.push g.ginject thunk;
    wake_routed cl c g

  let spawn_on (g : pool) thunk =
    let p = Promise.make_remote () in
    spawn_unit_on g (fun () ->
        match thunk () with
        | v -> Promise.fill_remote p v
        | exception e -> Promise.fill_remote_exn p e);
    p
end
