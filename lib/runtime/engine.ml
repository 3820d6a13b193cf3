(** The continuation-stealing scheduler engine (Sections III and IV of the
    paper), generic over the work-stealing deque and the strand-
    coordination counter.  Instantiations (see {!Presets}):

    - Chase-Lev deque × wait-free counter  — Nowa
    - THE deque       × wait-free counter  — the Figure 9 "Nowa (THE)" variant
    - THE deque       × lock-based counter — Fibril
    - locked deque    × lock-based counter — the Cilk Plus model

    Mechanics on OCaml 5 effects: [spawn] performs an effect whose handler
    captures the continuation after the spawn, pushes it to the bottom of
    the worker's deque (Figure 5, line 2) and runs the child on a fresh
    fiber under the same handler.  When the child returns, the handler
    pops the deque: a hit must be the very continuation just pushed
    (LIFO), so it is resumed directly — the common, steal-free path; a
    miss means the continuation was stolen, turning the rest of this
    control flow into a joining strand (the implicit sync of Figure 5,
    lines 4-5).  Suspension is simply the effect handler returning to the
    scheduler loop without resuming anything.

    {2 Lazy continuation exposure}

    The effect path above runs only when the spawning worker's deque is
    empty.  While the deque already holds a continuation, [spawn] runs
    the child inline as a plain call (the serial elision) and exposes
    nothing: each busy worker keeps one stealable continuation, the
    outermost one it spawned since its deque last emptied.  A steal
    empties the victim's deque, so the victim's next spawn exposes
    again.  Running the serial elision is a legal schedule for any fully
    strict computation, so the inline decision is always safe; it reads
    only state the worker already owns, hence no knob.

    {2 Hot-path allocation discipline (ISSUE 9)}

    A spawn+sync round trip performs no minor-heap allocation beyond the
    unavoidable effect machinery (the [Spawn] effect value and the fiber
    the child runs on) and, for value-returning [spawn], one flat promise
    record:

    - the deque element is a mutable {e task box} recycled through a
      per-worker [spare] slot — the box popped on the steal-free path is
      immediately reused for the next push;
    - the per-scope frame (counter + suspension slot + per-frame effect
      handler) is recycled through a per-worker free list — frames are
      pristine after a completed sync;
    - the suspension slot is three flat fields guarded by one int atomic
      instead of an [option Atomic.t] exchange box;
    - the per-child handler closures live in the frame (shared by all its
      children) instead of being rebuilt per [match_with];
    - the deque's [pop] returns the dummy element instead of an [option].

    Task boxes are mutated only under exclusive ownership: a box belongs
    to the pushing worker until a deque commit (pop CAS / steal CAS /
    critical section) transfers it, and thieves read its fields only
    after their commit, so the plain mutable fields ride the deques'
    existing release/acquire ordering. *)

module Make
    (QM : Nowa_deque.Ws_deque_intf.MAKER)
    (C : Nowa_sync.Counter_intf.JOIN_COUNTER)
    (Id : sig
      val name : string
      val description : string
    end) : Runtime_intf.S = struct
  let name = Id.name
  let description = Id.description

  module Ring = Nowa_trace.Ring
  module Ev = Nowa_trace.Event

  type 'a promise = 'a Promise.t

  type cont = (unit, unit) Effect.Deep.continuation

  type frame = {
    counter : C.t;
    mutable susp_k : cont;  (* valid iff susp_state = 1 *)
    mutable susp_stack : Stack_pool.stack option;
    susp_state : int Atomic.t;  (* 0 = empty, 1 = published *)
    exn_slot : exn option Atomic.t;
    mutable handler : (unit, unit) Effect.Deep.handler;
        (* retc/exnc close over this very frame; built once in
           [make_frame], shared by every child of the frame. *)
  }

  type scope = frame

  (* Sentinels for the recycled mutable slots.  They are immediates
     ([Obj.magic ()] = the unit word), safe for the GC to scan in pointer
     fields and never dereferenced: a dummy cont/frame only ever sits in
     a cleared slot or in the deque's blanked buffer cells. *)
  let dummy_cont : cont = Obj.magic ()
  let dummy_frame : frame = Obj.magic ()

  (* The deque element: one mutable box per in-flight continuation,
     recycled via the worker's [spare] slot once ownership returns. *)
  type task = {
    mutable kind : int;  (* [kind_stolen] or [kind_root] *)
    mutable tk : cont;
    mutable tfn : unit -> unit;  (* root thunk; [ignore] otherwise *)
    mutable tfr : frame;
  }

  let kind_stolen = 0
  let kind_root = 1

  let dummy_task =
    { kind = kind_root; tk = dummy_cont; tfn = ignore; tfr = dummy_frame }

  module Q = QM (struct
    type t = task

    let dummy = dummy_task
  end)

  (* One named micropool (ISSUE 10): a contiguous slice of the global
     worker array with its own sleeper registry (local ids), its own
     inject queue for [spawn_on]-routed roots, and its own idle/steal
     knobs.  The single-pool topology builds exactly one of these, and
     the spawn/sync hot path pays only the [w.grp] indirection. *)
  type group = {
    gid : int;
    gname : string;
    glo : int;  (* first global worker id of this pool *)
    ghi : int;  (* one past the last *)
    gsleepers : Sleepers.t;  (* indexed by pool-local worker id *)
    ginject : task Nowa_deque.Central_queue.t;
        (* [spawn_on] roots; FIFO per target pool *)
    ggate : int Atomic.t;
        (* conservative inject count: raised before a push, lowered
           after a pop, so 0 proves the queue empty and idle workers
           skip the queue lock entirely *)
    gidle : Config.idle_policy;
    gsweep : int;
  }

  type pool = group

  type worker = {
    id : int;
    grp : group;
    deque : Q.t;
    rng : Nowa_util.Xoshiro.t;
    m : Metrics.worker;
    tr : Ring.t;  (* wait-free event ring; Ring.disabled when not tracing *)
    mutable stack : Stack_pool.stack option;
    mutable next_victim : int;  (* Round_robin victim scan position *)
    mutable spare : task;  (* recycled task box; [dummy_task] when empty *)
    mutable child_thunk : unit -> Obj.t;
        (* in-flight child relay: written by [handle_spawn], read back at
           the top of the child fiber — never lives across an effect *)
    mutable child_promise : Obj.t Promise.t;
    frames : frame array;  (* free list of pristine frames *)
    mutable nframes : int;
  }

  type cluster = {
    conf : Config.t;
    workers : worker array;  (* all pools, global ids *)
    groups : group array;
    spill : bool;  (* cross-pool spill-over stealing enabled *)
    stacks : Stack_pool.t;
    finished : bool Atomic.t;
    hb : Health.Beats.t;  (* per-worker heartbeat words; watchdog input *)
  }

  (* The effect carries the untyped thunk and promise directly (the
     uniform-representation coercion confined to [spawn]/[spawn_unit]),
     so no per-spawn wrapper closure is built. *)
  type _ Effect.t +=
    | Spawn : frame * (unit -> Obj.t) * Obj.t Promise.t -> unit Effect.t
    | Sync : frame -> unit Effect.t

  let dummy_thunk : unit -> Obj.t = fun () -> Obj.repr ()

  (* Shared sentinel promise for [spawn_unit]; never filled (guarded by
     physical inequality in [child_body]). *)
  let dummy_promise : Obj.t Promise.t = Promise.make ()

  let current : (cluster * worker) option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let get_current () =
    match Domain.DLS.get current with
    | Some pw -> pw
    | None ->
      failwith (name ^ ": spawn/sync/scope used outside of run")

  let note_exn fr e =
    ignore (Atomic.compare_and_set fr.exn_slot None (Some e))

  let ensure_stack pool w =
    match w.stack with
    | Some s -> s
    | None ->
      let s = Stack_pool.acquire pool.stacks ~worker:w.id in
      w.m.stack_acquires <- w.m.stack_acquires + 1;
      Ring.emit w.tr Ev.Stack_acquire 0;
      w.stack <- Some s;
      s

  let drop_stack pool w =
    match w.stack with
    | None -> ()
    | Some s ->
      Stack_pool.release pool.stacks ~worker:w.id s;
      w.m.stack_releases <- w.m.stack_releases + 1;
      Ring.emit w.tr Ev.Stack_release 0;
      w.stack <- None

  (* Clear a task box we own and park it in the worker's spare slot for
     the next push.  Clearing drops the references so a parked box never
     retains a continuation or frame. *)
  let recycle_task w (t : task) =
    t.kind <- kind_stolen;
    t.tk <- dummy_cont;
    t.tfn <- ignore;
    t.tfr <- dummy_frame;
    w.spare <- t

  (* Body of every child fiber.  A static function (no per-child closure):
     the thunk and promise travel through the spawning worker's relay
     fields, read back here before anything else can run on this domain. *)
  let child_body w =
    let thunk = w.child_thunk and p = w.child_promise in
    w.child_thunk <- dummy_thunk;
    w.child_promise <- dummy_promise;
    match thunk () with
    | v -> if p != dummy_promise then Promise.fill p v
    | exception e ->
      if p != dummy_promise then Promise.fill_exn p e;
      raise e
  (* the re-raise lands in the frame handler's [exnc], which records the
     exception in the frame and joins as usual *)

  (* Resume a frame whose sync condition this caller observed: claim the
     published continuation (exactly one strand ever gets here per sync),
     re-arm the counter for a possible next spawn phase, adopt the
     suspended stack if one travelled with the frame. *)
  let rec resume_frame pool w fr =
    let claimed = Atomic.exchange fr.susp_state 0 in
    (* claimed = 1 always: the counter designates a unique zero-observer,
       and the continuation is published before the counter can reach 0. *)
    assert (claimed = 1);
    let k = fr.susp_k in
    let stk = fr.susp_stack in
    fr.susp_k <- dummy_cont;
    fr.susp_stack <- None;
    w.m.resumes <- w.m.resumes + 1;
    Ring.emit w.tr Ev.Resume 0;
    C.reset fr.counter;
    (match stk with
    | None -> ()
    | Some s ->
      drop_stack pool w;
      Stack_pool.reactivate pool.stacks s;
      w.stack <- Some s);
    Effect.Deep.continue k ()

  (* Figure 5, lines 4-5: runs after a spawned child returned. *)
  and after_child fr =
    let pool, w = get_current () in
    let t = Q.pop w.deque in
    if t != dummy_task then begin
      (* Not stolen: this is necessarily the continuation pushed for this
         very child (LIFO and balanced nesting; root tasks never enter a
         deque).  Recycle the box before resuming — the continuation's
         next spawn reuses it. *)
      let k = t.tk in
      t.tk <- dummy_cont;
      t.tfr <- dummy_frame;
      w.spare <- t;
      Effect.Deep.continue k ()
    end
    else begin
      (* The continuation was stolen: implicit sync. *)
      w.m.lost_continuations <- w.m.lost_continuations + 1;
      Ring.emit w.tr Ev.Lost_continuation 0;
      if C.child_joined fr.counter then resume_frame pool w fr
    end

  and exec_child w fr thunk p =
    w.child_thunk <- thunk;
    w.child_promise <- p;
    Effect.Deep.match_with child_body w fr.handler

  and handle_spawn : frame -> (unit -> Obj.t) -> Obj.t Promise.t -> cont -> unit
      =
   fun fr thunk p k ->
    let pool, w = get_current () in
    w.m.spawns <- w.m.spawns + 1;
    (* Spawn is a station point too: a worker descending a deep inline
       subtree may not complete a task or probe a victim for a long
       time, and without this beat the watchdog would read that busy
       worker as stalled. *)
    Health.Beats.beat pool.hb w.id;
    Ring.emit w.tr Ev.Spawn 0;
    (* Only exposed spawns touch a stack page: an inline child runs on
       the spawner's own frame, like the call it elides. *)
    (match w.stack with
    | Some s -> Stack_pool.touch s ~pages:1 ~max_pages:pool.conf.Config.stack_pages
    | None -> ());
    let t = w.spare in
    let t =
      if t != dummy_task then begin
        w.spare <- dummy_task;
        t.tk <- k;
        t.tfr <- fr;
        t
      end
      else { kind = kind_stolen; tk = k; tfn = ignore; tfr = fr }
    in
    Q.push_bottom w.deque t;
    (* One atomic load when nobody sleeps — the spawn path stays
       wait-free; the CAS + signal run only against an actual sleeper.
       Only the spawner's own pool is woken: foreign pools find spilled
       work through their pre-park sweep when spill-over is on. *)
    if Sleepers.wake_one w.grp.gsleepers then w.m.wakeups <- w.m.wakeups + 1;
    exec_child w fr thunk p

  and handle_sync : frame -> cont -> unit =
   fun fr k ->
    let pool, w = get_current () in
    if C.pending_hint fr.counter = 0 then begin
      (* Fused fast path: every stolen strand has already joined (the
         hint is exact here — no continuation of this frame sits in any
         deque at an explicit sync, so no new steal or join can race us)
         and [reach_sync] must succeed.  Skip the stack handover, the
         publication store and the resume exchange entirely. *)
      let ok = C.reach_sync fr.counter in
      assert ok;
      w.m.fused_syncs <- w.m.fused_syncs + 1;
      C.reset fr.counter;
      Effect.Deep.continue k ()
    end
    else begin
      (* Strands are still outstanding, so we will very likely suspend:
         the frame's stack is handed over now (paying the modelled
         madvise cost when configured), because after [reach_sync]
         returns [false] this strand no longer owns the frame. *)
      let stk =
        match w.stack with
        | Some s ->
          Stack_pool.suspend pool.stacks s;
          w.stack <- None;
          Some s
        | None -> None
      in
      fr.susp_k <- k;
      fr.susp_stack <- stk;
      Atomic.set fr.susp_state 1;
      if C.reach_sync fr.counter then resume_frame pool w fr
      else begin
        w.m.suspensions <- w.m.suspensions + 1;
        Ring.emit w.tr Ev.Suspend 0
      end
    end
  (* returning without resuming = this strand is suspended; control goes
     back to the scheduler loop, which hunts for work. *)

  and effc : type a. a Effect.t -> ((a, unit) Effect.Deep.continuation -> unit) option
      = function
    | Spawn (fr, thunk, p) -> Some (fun k -> handle_spawn fr thunk p k)
    | Sync fr -> Some (fun k -> handle_sync fr k)
    | _ -> None

  let null_handler : (unit, unit) Effect.Deep.handler =
    { retc = ignore; exnc = raise; effc = (fun _ -> None) }

  let make_frame () =
    let fr =
      {
        counter = C.create ();
        susp_k = dummy_cont;
        susp_stack = None;
        susp_state = Atomic.make 0;
        exn_slot = Atomic.make None;
        handler = null_handler;
      }
    in
    fr.handler <-
      {
        Effect.Deep.retc = (fun () -> after_child fr);
        exnc =
          (fun e ->
            note_exn fr e;
            after_child fr);
        effc;
      };
    fr

  (* Frames returned to the free list are pristine: the counter was reset
     on every completed-sync path, the exn slot was drained by [sync] and
     the suspension slot was cleared by its unique claimer. *)
  let recycle_frame w fr =
    if w.nframes < Array.length w.frames then begin
      w.frames.(w.nframes) <- fr;
      w.nframes <- w.nframes + 1
    end

  let take_frame w =
    if w.nframes > 0 then begin
      let n = w.nframes - 1 in
      w.nframes <- n;
      let fr = w.frames.(n) in
      w.frames.(n) <- dummy_frame;
      fr
    end
    else make_frame ()

  let on_commit t = if t.kind == kind_stolen then C.note_steal t.tfr.counter

  (* Take one routed root from a pool's inject queue.  The gate read
     keeps the common empty case lock-free: the gate is raised before
     the push, so 0 proves emptiness. *)
  let try_inject (g : group) =
    if Atomic.get g.ggate = 0 then None
    else
      match Nowa_deque.Central_queue.pop g.ginject with
      | Some _ as r ->
        Atomic.decr g.ggate;
        r
      | None -> None

  let try_steal cl w =
    let g = w.grp in
    let n = g.ghi - g.glo in
    let attempt victim =
      w.m.steal_attempts <- w.m.steal_attempts + 1;
      Health.Beats.beat cl.hb w.id;
      Ring.emit w.tr Ev.Steal_attempt victim.id;
      match Q.steal victim.deque ~on_commit with
      | Some _ as r ->
        Ring.emit w.tr Ev.Steal_commit victim.id;
        r
      | None ->
        Ring.emit w.tr Ev.Steal_abort victim.id;
        None
    in
    (* Own deque first: it may hold continuations sitting under a frame
       that suspended; converting one into a parallel strand (with the
       full steal protocol) is both legal and necessary for progress. *)
    match attempt w with
    | Some t -> Some t
    | None -> (
      (* Routed roots next: they are this pool's responsibility and have
         no other worker to run them. *)
      match try_inject g with
      | Some _ as r -> r
      | None ->
        if n = 1 then None
        else begin
          (* Sweep up to [steal_sweep] distinct pool-mates before
             counting the round as failed.  Victims are addressed as
             offsets in [0, n-2] rotated past the thief's own local id,
             so the sweep never probes itself and never repeats a
             victim; stealing stays inside the pool (spill-over runs
             later, from the idle loop). *)
          let sweep = min (max 1 g.gsweep) (n - 1) in
          let lid = w.id - g.glo in
          let start =
            match cl.conf.Config.victim_policy with
            | Config.Random -> Nowa_util.Xoshiro.int w.rng (n - 1)
            | Config.Round_robin ->
              let v = w.next_victim mod (n - 1) in
              w.next_victim <- v + sweep;
              v
          in
          let rec probe i =
            if i >= sweep then begin
              Nowa_obs.Histogram.observe Metrics.sweep_length sweep;
              None
            end
            else begin
              let v = g.glo + ((lid + 1 + ((start + i) mod (n - 1))) mod n) in
              match attempt cl.workers.(v) with
              | Some _ as r ->
                Nowa_obs.Histogram.observe Metrics.sweep_length (i + 1);
                r
              | None -> probe (i + 1)
            end
          in
          probe 0
        end)

  (* Cross-pool spill-over (ISSUE 10, behind [Config.spill_over]): only
     reached when the worker's own pool — deque, inject queue and every
     pool-mate — came up empty, so the ordering argument holds: local
     work always wins over foreign work.  Foreign pools are scanned
     round-robin from the next pool over; within each, the inject queue
     first (routed roots have no other runner) then up to [gsweep]
     random victims. *)
  let try_spill cl w =
    let ng = Array.length cl.groups in
    if ng <= 1 then None
    else begin
      let attempt victim =
        w.m.steal_attempts <- w.m.steal_attempts + 1;
        Ring.emit w.tr Ev.Steal_attempt victim.id;
        match Q.steal victim.deque ~on_commit with
        | Some _ as r ->
          Ring.emit w.tr Ev.Steal_commit victim.id;
          r
        | None -> None
      in
      let rec groups k =
        if k >= ng - 1 then None
        else begin
          let g = cl.groups.((w.grp.gid + 1 + k) mod ng) in
          match try_inject g with
          | Some _ as r -> r
          | None ->
            let n = g.ghi - g.glo in
            let sweep = min (max 1 w.grp.gsweep) n in
            let start = Nowa_util.Xoshiro.int w.rng n in
            let rec probe i =
              if i >= sweep then None
              else
                match attempt cl.workers.(g.glo + ((start + i) mod n)) with
                | Some _ as r -> r
                | None -> probe (i + 1)
            in
            (match probe 0 with Some _ as r -> r | None -> groups (k + 1))
        end
      in
      groups 0
    end

  let execute pool w (t : task) =
    w.m.tasks <- w.m.tasks + 1;
    ignore (ensure_stack pool w);
    Ring.emit w.tr Ev.Task_start 0;
    (if t.kind == kind_root then begin
       let f = t.tfn in
       recycle_task w t;
       f ()
     end
     else begin
       let k = t.tk and fr = t.tfr in
       (* The box is ours after the steal/pop commit: strip it and hand
          it to this worker's spare slot before resuming. *)
       recycle_task w t;
       w.m.steals <- w.m.steals + 1;
       (* Invariant II: α is bumped by the (unique) main-path control
          flow, here, just before the stolen continuation resumes. *)
       C.note_resume fr.counter;
       Effect.Deep.continue k ()
     end);
    Ring.emit w.tr Ev.Task_end 0;
    Health.Beats.beat pool.hb w.id

  (* Pre-park re-check: a deterministic sweep over EVERY deque (own
     included) using real steal operations.  Size reads would not do —
     the locked deque's [size] reads plain mutable fields without the
     lock — whereas [steal] synchronises properly on every
     implementation.  Because the caller has already announced its
     sleeper bit, sequential consistency gives: any task pushed before
     the spawner's registry load is visible to this sweep, or was taken
     by a racing thief that is itself awake and holding work. *)
  let sweep_group cl w (g : group) =
    let n = g.ghi - g.glo in
    let off = if w.id >= g.glo && w.id < g.ghi then w.id - g.glo else 0 in
    let rec go i =
      if i >= n then try_inject g
      else begin
        let victim = cl.workers.(g.glo + ((off + i) mod n)) in
        w.m.steal_attempts <- w.m.steal_attempts + 1;
        match Q.steal victim.deque ~on_commit with
        | Some _ as r ->
          Ring.emit w.tr Ev.Steal_commit victim.id;
          r
        | None -> go (i + 1)
      end
    in
    go 0

  let sweep_all cl w =
    match sweep_group cl w w.grp with
    | Some _ as r -> r
    | None ->
      if not cl.spill then None
      else begin
        (* With spill-over on, this worker may be the last one awake
           that could ever run a foreign pool's pending work, so the
           pre-park sweep must cover the foreign pools too — same
           lost-wakeup argument, registry per pool. *)
        let ng = Array.length cl.groups in
        let rec go k =
          if k >= ng - 1 then None
          else
            match
              sweep_group cl w cl.groups.((w.grp.gid + 1 + k) mod ng)
            with
            | Some _ as r -> r
            | None -> go (k + 1)
        in
        go 0
      end

  (* One park round: announce, re-check everything, then either run what
     the re-check found, bail out on shutdown, or block until a spawner
     posts a token.  Returns work if the re-check produced any. *)
  let park_round cl w =
    Health.Beats.beat cl.hb w.id;
    let sleepers = w.grp.gsleepers in
    let lid = w.id - w.grp.glo in
    ignore (Sleepers.announce sleepers ~worker:lid);
    let cancel () =
      if not (Sleepers.cancel sleepers ~worker:lid) then
        (* A waker claimed our bit first: its token is in flight and the
           next park will consume it immediately. *)
        w.m.wake_retries <- w.m.wake_retries + 1
    in
    match sweep_all cl w with
    | Some _ as r ->
      cancel ();
      r
    | None ->
      if Atomic.get cl.finished then cancel ()
      else begin
        w.m.parks <- w.m.parks + 1;
        Ring.emit w.tr Ev.Park 0;
        let t0 = Nowa_util.Clock.now_ns () in
        Sleepers.park sleepers ~worker:lid;
        Health.Beats.beat cl.hb w.id;
        w.m.parked_ns <- w.m.parked_ns + (Nowa_util.Clock.now_ns () - t0);
        Ring.emit w.tr Ev.Unpark 0
      end;
      None

  (* Three-phase elastic idle path: [spin_budget] rounds of pure
     spinning (with the existing truncated backoff), the same again
     yielding the OS timeslice each round, then parking.  [finished] is
     checked on every iteration of every phase, and shutdown wakes all
     parked workers, so exit is prompt in all phases. *)
  let worker_loop cl w =
    let bo = Nowa_util.Backoff.make () in
    let spin_budget, can_park =
      match w.grp.gidle with
      | Config.Spin -> (max_int, false)
      | Config.Yield_after n -> (max 1 n, false)
      | Config.Park_after n -> (max 1 n, true)
    in
    (* No mask-width guard needed: [Topology.of_config] (backed by
       [Sleepers.create]) rejects pools wider than the registry, so
       every local id can park. *)
    let rounds = ref 0 in
    let take () =
      match try_steal cl w with
      | Some _ as r -> r
      | None -> if cl.spill then try_spill cl w else None
    in
    let rec go () =
      if Atomic.get cl.finished then ()
      else
        match take () with
        | Some t ->
          Nowa_util.Backoff.reset bo;
          rounds := 0;
          execute cl w t;
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
              execute cl w t
            | None -> ());
            (* Fresh spin phase after an unpark (work just appeared) or
               a shutdown wake (the [finished] check above exits). *)
            Nowa_util.Backoff.reset bo;
            rounds := 0;
            go ()
          end
    in
    go ()

  let last_metrics_ref = ref None
  let last_metrics () = !last_metrics_ref
  let last_trace_ref = ref None
  let last_trace () = !last_trace_ref

  (* Frames cached per worker; deeper recycling simply falls back to the
     GC.  Completed scopes return frames innermost-first, so the steady-
     state free-list depth is tiny — the slack absorbs bursts. *)
  let frame_cache = 64

  let run ?conf main =
    let conf = match conf with Some c -> c | None -> Config.default () in
    (* Validate the pool topology before entering the runtime guard so a
       bad configuration raises without leaking guard state. *)
    let specs = Topology.of_config conf in
    let nw = Topology.total specs in
    let conf = { conf with Config.workers = nw } in
    Runtime_guard.enter name;
    Runtime_log.Log.debug (fun m ->
        m "%s: starting %d workers in %d pool(s)" name nw (Array.length specs));
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
    let cl =
      {
        conf;
        groups;
        spill = conf.Config.spill_over;
        stacks = Stack_pool.create conf;
        finished = Atomic.make false;
        hb =
          (if conf.Config.heartbeats then Health.Beats.create ~workers:nw
           else Health.Beats.disabled);
        workers =
          (* Worker records hold hot mutable fields (spare slot, stack,
             frame-list cursor); isolate each record's birth cache line. *)
          Array.init nw (fun i ->
              let g = groups.(Topology.group_of specs i) in
              Nowa_util.Padding.isolate (fun () ->
                  {
                    id = i;
                    grp = g;
                    deque =
                      Q.create ~capacity:specs.(g.gid).Topology.capacity ();
                    rng =
                      Nowa_util.Xoshiro.make
                        ~seed:(conf.Config.seed + (i * 7919) + 1);
                    m = Metrics.make_worker ~pool:g.gname i;
                    tr = ring_for i;
                    stack = None;
                    next_victim = i + 1;
                    spare = dummy_task;
                    child_thunk = dummy_thunk;
                    child_promise = dummy_promise;
                    frames = Array.make frame_cache dummy_frame;
                    nframes = 0;
                  }));
      }
    in
    (* Expose this run's counters live: scrapes read the worker records
       and pool getters while the computation runs. *)
    let stack_stats () =
      {
        Metrics.allocated_stacks = Stack_pool.allocated_stacks cl.stacks;
        live_stacks = Stack_pool.live_stacks cl.stacks;
        max_rss_pages = Stack_pool.max_rss_pages cl.stacks;
        madvise_calls = Stack_pool.madvise_calls cl.stacks;
        pool_hits = Stack_pool.global_pool_hits cl.stacks;
      }
    in
    Metrics.publish ~stacks:stack_stats
      (Array.map (fun w -> w.m) cl.workers);
    (* Flight-recorder contributor: freeze the live rings' most recent
       window into a Perfetto file inside the bundle.  Registered even
       though the watchdog may be off — an explicit dump wants it too. *)
    (match trace with
    | Some t ->
      Health.Recorder.register ~name:"trace" (fun ~dir ->
          let evs, _dropped = Nowa_trace.Trace.freeze ~window:4096 t in
          Nowa_trace.Perfetto.write_events_file
            (Filename.concat dir "trace.json")
            evs)
    | None -> Health.Recorder.unregister ~name:"trace");
    if conf.Config.watchdog_interval_ms > 0 then
      Runtime_guard.start_monitor (fun () ->
          (* Pool-aware probe (ISSUE 10): sleeper registries are per
             pool and keyed by local ids, so every accessor translates
             the global index through the worker's group — two pools'
             worker 0s can no longer alias into one sleeper slot or one
             verdict row. *)
          let grp i = cl.workers.(i).grp in
          let lid i = i - (grp i).glo in
          let probe =
            {
              Health.engine = name;
              workers = nw;
              pool_of = (fun i -> ((grp i).gname, lid i));
              beat_of = (fun i -> Health.Beats.read cl.hb i);
              announced =
                (fun i -> Sleepers.announced (grp i).gsleepers ~worker:(lid i));
              waiting =
                (fun i -> Sleepers.waiting (grp i).gsleepers ~worker:(lid i));
              wake_stamp =
                (fun i ->
                  Sleepers.wake_stamp (grp i).gsleepers ~worker:(lid i));
              ready =
                (fun () ->
                  Array.fold_left
                    (fun acc w -> acc + Q.size w.deque)
                    0 cl.workers
                  + Array.fold_left
                      (fun acc g -> acc + Atomic.get g.ggate)
                      0 cl.groups);
              sleepers =
                (fun () ->
                  Array.fold_left
                    (fun acc g -> acc + Sleepers.sleepers g.gsleepers)
                    0 cl.groups);
              draining = (fun () -> Atomic.get cl.finished);
            }
          in
          let h =
            Health.Monitor.spawn
              ~interval_ms:conf.Config.watchdog_interval_ms
              ~stall_scans:conf.Config.watchdog_stall_scans
              ~dump:conf.Config.watchdog_dump probe
          in
          fun () -> Health.Monitor.stop h);
    let result = ref None in
    let wake_everyone () =
      Array.iter (fun g -> Sleepers.wake_all g.gsleepers) cl.groups
    in
    let root =
      {
        kind = kind_root;
        tk = dummy_cont;
        tfn =
          (fun () ->
            Effect.Deep.match_with main ()
              {
                retc =
                  (fun v ->
                    result := Some (Ok v);
                    Atomic.set cl.finished true;
                    wake_everyone ());
                exnc =
                  (fun e ->
                    result := Some (Error e);
                    Atomic.set cl.finished true;
                    wake_everyone ());
                effc;
              });
        tfr = dummy_frame;
      }
    in
    let t0 = Unix.gettimeofday () in
    let domains =
      List.init (nw - 1) (fun i ->
          let w = cl.workers.(i + 1) in
          Domain.spawn (fun () ->
              Domain.DLS.set current (Some (cl, w));
              Nowa_trace.Current.set ~worker:w.id w.tr;
              Fun.protect
                ~finally:(fun () ->
                  Domain.DLS.set current None;
                  Nowa_trace.Current.clear ())
                (fun () -> worker_loop cl w)))
    in
    let w0 = cl.workers.(0) in
    Domain.DLS.set current (Some (cl, w0));
    Nowa_trace.Current.set ~worker:w0.id w0.tr;
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
      Domain.DLS.set current None;
      Nowa_trace.Current.clear ();
      join_all ();
      Runtime_guard.exit ()
    in
    Fun.protect ~finally:teardown (fun () ->
        execute cl w0 root;
        worker_loop cl w0;
        join_all ();
        (* Fold the pages still held by quiescent workers into the RSS
           watermark before reporting it. *)
        Array.iter
          (fun w ->
            match w.stack with
            | Some s -> Stack_pool.sync_rss cl.stacks s
            | None -> ())
          cl.workers;
        let elapsed = Unix.gettimeofday () -. t0 in
        Runtime_log.Log.debug (fun m ->
            m "%s: computation finished in %.6f s" name elapsed);
        (* The domains have joined: the rings are quiescent and safe to
           hand out for draining. *)
        last_trace_ref := trace;
        if conf.Config.collect_metrics then begin
          let stacks = stack_stats () in
          last_metrics_ref :=
            Some
              (Metrics.make ~stacks
                 (Array.map (fun w -> w.m) cl.workers)
                 ~elapsed_s:elapsed)
        end);
    match !result with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None -> assert false

  let sync fr =
    let _, w = get_current () in
    (if C.forked fr.counter then begin
       if C.pending_hint fr.counter = 0 then begin
         (* Fused explicit sync: all stolen strands have joined, so
            [reach_sync] is guaranteed to succeed (see [handle_sync]) —
            complete the sync inline without even capturing the
            continuation.  This is the post-steal analogue of the
            never-forked fast path below. *)
         let ok = C.reach_sync fr.counter in
         assert ok;
         w.m.fused_syncs <- w.m.fused_syncs + 1;
         C.reset fr.counter
       end
       else Effect.perform (Sync fr)
     end
     else w.m.fast_syncs <- w.m.fast_syncs + 1);
    match Atomic.exchange fr.exn_slot None with
    | Some e -> raise e
    | None -> ()

  let scope f =
    let _, w = get_current () in
    let fr = take_frame w in
    match f fr with
    | v ->
      sync fr;
      (* [sync] may have migrated this strand: recycle to wherever the
         main path landed. *)
      let _, w = get_current () in
      recycle_frame w fr;
      v
    | exception e ->
      (* Fully strict: join the children even on the exceptional path;
         the original exception wins over any child exception. *)
      (try sync fr with _ -> ());
      let _, w = get_current () in
      recycle_frame w fr;
      raise e

  (* Lazy exposure: true when this spawn should run its child inline
     because the worker already holds a stealable continuation.  The
     spawn is still a spawn point for the counters, the heartbeat and
     the trace (arg 1 marks it inline).  A stale size read is harmless
     either way: a thief racing us to the last element only delays the
     next exposure, and a push onto a non-empty deque is the eager
     schedule. *)
  let[@inline] inline_spawn cl w =
    if Q.size w.deque > 0 then begin
      w.m.spawns <- w.m.spawns + 1;
      w.m.inlined <- w.m.inlined + 1;
      Health.Beats.beat cl.hb w.id;
      Ring.emit w.tr Ev.Spawn 1;
      true
    end
    else false

  (* An inline child's exception lands where the exposed path's [exnc]
     puts it: in the promise and in the frame, to surface at the sync. *)
  let spawn (type a) fr (thunk : unit -> a) : a promise =
    let p : a promise = Promise.make () in
    let cl, w = get_current () in
    if inline_spawn cl w then begin
      match thunk () with
      | v -> Promise.fill p v
      | exception e ->
        Promise.fill_exn p e;
        note_exn fr e
    end
    else
      (* Uniform-representation coercions: every OCaml function value
         uses the generic calling convention, so a [unit -> a] thunk and
         an [a Promise.t] can travel through the monomorphic effect; the
         value is only ever read back at type [a] (in [Promise.get]). *)
      Effect.perform
        (Spawn
           (fr, (Obj.magic thunk : unit -> Obj.t), (Obj.magic p : Obj.t Promise.t)));
    p

  (* Promise-free spawn for request-shaped work: the only allocation on
     the dispatch path is the effect value itself. *)
  let spawn_unit fr thunk =
    let cl, w = get_current () in
    if inline_spawn cl w then (try thunk () with e -> note_exn fr e)
    else
      Effect.perform
        (Spawn (fr, (Obj.magic thunk : unit -> Obj.t), dummy_promise))

  let get p = Promise.get ~runtime:name p
  let await p = Promise.await ~runtime:name p

  (* -- pool routing (ISSUE 10) ------------------------------------------ *)

  let find_pool pname =
    let cl, _ = get_current () in
    Array.find_opt (fun g -> String.equal g.gname pname) cl.groups

  let pool pname =
    match find_pool pname with
    | Some g -> g
    | None ->
      invalid_arg
        (Printf.sprintf "%s: unknown pool %S (configure it in Config.pools)"
           name pname)

  let pool_name (g : pool) = g.gname

  let self_pool () =
    let _, w = get_current () in
    w.grp.gname

  (* Wake path for a routed root: the target pool's registry first; with
     spill-over on and no local sleeper, any foreign sleeper will do —
     the pre-park sweep covers foreign inject queues, and this closes
     the window where every potential runner is already parked. *)
  let wake_routed cl w (g : group) =
    if Sleepers.wake_one g.gsleepers then w.m.wakeups <- w.m.wakeups + 1
    else if cl.spill then begin
      let ng = Array.length cl.groups in
      let rec go k =
        if k >= ng - 1 then ()
        else if Sleepers.wake_one cl.groups.((g.gid + 1 + k) mod ng).gsleepers
        then w.m.wakeups <- w.m.wakeups + 1
        else go (k + 1)
      in
      go 0
    end

  let enqueue_routed (g : pool) tfn =
    let cl, w = get_current () in
    let t = { kind = kind_root; tk = dummy_cont; tfn; tfr = dummy_frame } in
    (* Gate up before the push so a zero gate proves an empty queue. *)
    Atomic.incr g.ggate;
    Nowa_deque.Central_queue.push g.ginject t;
    wake_routed cl w g

  (* Handler under which a routed root runs: spawn/sync effects from the
     task's scopes resolve here, exactly as under [run]'s root. *)
  let routed_handler : (unit, unit) Effect.Deep.handler =
    { retc = ignore; exnc = raise; effc }

  let spawn_on (type a) (g : pool) (thunk : unit -> a) : a promise =
    let p : a promise = Promise.make_remote () in
    enqueue_routed g (fun () ->
        Effect.Deep.match_with
          (fun () ->
            match thunk () with
            | v -> Promise.fill_remote p v
            | exception e -> Promise.fill_remote_exn p e)
          () routed_handler);
    p

  let spawn_unit_on (g : pool) thunk =
    enqueue_routed g (fun () ->
        Effect.Deep.match_with
          (fun () ->
            try thunk ()
            with e ->
              Runtime_log.Log.err (fun m ->
                  m "%s: spawn_unit_on %S task raised %s" name g.gname
                    (Printexc.to_string e)))
          () routed_handler)
end
