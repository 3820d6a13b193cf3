(** Child-stealing scheduler engine (Section II-B's alternative scheme),
    the structural model for TBB and for LLVM libomp's task scheduler.

    At a fork point the {e child task} is pushed to the worker's deque and
    the parent continues immediately (help-first).  Because the parent
    increments its frame's pending count {e before} publishing the child,
    the worker/thief race of Figure 6 does not arise here — the price is
    paid elsewhere: every child is a heap-allocated task, and joins are
    blocking-with-helping rather than suspending.

    [sync] is modelled on OpenMP's [taskwait]: the waiting strand loops,
    executing tasks until its children have all finished.

    - [Waiting.Steal_anywhere] (TBB, libomp untied tasks): the waiter
      helps from its own deque first and steals from victims otherwise.
    - [Waiting.Local_only] (libomp tied tasks): the task-scheduling
      constraint pins the waiter to tasks from its own deque; when that
      runs dry it can only spin.  This is the structural reason tied
      tasks over- or under-perform untied ones per benchmark in
      Figure 10/Table III.

    This module keeps spawn, sync and how work is found; pools, routing,
    the idle loop and [run] come from {!Shell}. *)

module Waiting = struct
  type t = Steal_anywhere | Local_only
end

module Make
    (QM : Nowa_deque.Ws_deque_intf.MAKER)
    (Id : sig
      val name : string
      val description : string
      val waiting : Waiting.t
    end) : Runtime_intf.S = struct
  let name = Id.name
  let description = Id.description

  module Ring = Nowa_trace.Ring
  module Ev = Nowa_trace.Event

  type 'a promise = 'a Promise.t

  type frame = { pending : int Atomic.t; exn_slot : exn option Atomic.t }
  type scope = frame

  type task = Task of (unit -> unit)

  module Q = QM (struct
    type t = task

    let dummy = Task ignore
  end)

  type worker = {
    id : int;
    grp : task Shell.group;
    deque : Q.t;
    rng : Nowa_util.Xoshiro.t;
    m : Metrics.worker;
    tr : Ring.t;
    mutable depth : int;  (* task nesting while helping at a taskwait *)
  }

  type cluster = (task, worker, unit) Shell.cluster

  let current : (cluster * worker) option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let get_current () =
    match Domain.DLS.get current with
    | Some pw -> pw
    | None -> failwith (name ^ ": spawn/sync/scope used outside of run")

  let note_exn fr e =
    ignore (Atomic.compare_and_set fr.exn_slot None (Some e))

  (* Task bodies never raise ([spawn] and the shell wrap the thunk), so
     the depth bookkeeping needs no exception handling. *)
  let run_task (cl : cluster) w (Task f) =
    w.m.tasks <- w.m.tasks + 1;
    w.depth <- w.depth + 1;
    if w.depth = 1 then Ring.emit w.tr Ev.Task_start 0;
    f ();
    if w.depth = 1 then Ring.emit w.tr Ev.Task_end 0;
    w.depth <- w.depth - 1;
    Health.Beats.beat cl.Shell.hb w.id

  let no_commit _ = ()

  (* A victim probe: [max] tasks under one acquisition (a batched,
     [steal_half]-style grab) or a single steal when [max = 1]. *)
  let steal (cl : cluster) w ~max v =
    w.m.steal_attempts <- w.m.steal_attempts + 1;
    Health.Beats.beat cl.hb w.id;
    Ring.emit w.tr Ev.Steal_attempt v;
    match Q.steal_batch cl.workers.(v).deque ~max ~on_commit:no_commit with
    | [] ->
      Ring.emit w.tr Ev.Steal_abort v;
      None
    | head :: extra ->
      w.m.steals <- w.m.steals + 1 + List.length extra;
      Ring.emit w.tr Ev.Steal_commit v;
      (* The surplus moves to the thief's own deque so the next LIFO pops
         serve it without touching the victim again.  Tasks are plain
         closures, so re-homing them is always legal. *)
      List.iter
        (fun t ->
          try Q.push_bottom w.deque t
          with Nowa_deque.Ws_deque_intf.Full -> run_task cl w t)
        extra;
      Some head

  let steal_one cl w v = steal cl w ~max:1 v
  let steal_batch cl w ~sweep v = steal cl w ~max:sweep v
  let first_mate _ w ~mates ~sweep:_ = Nowa_util.Xoshiro.int w.rng mates

  (* Routed roots first (they have no other worker to run them), then up
     to [Config.steal_sweep] pool-mates, each a batched grab of up to
     that many tasks.  The caller has already drained its own deque. *)
  let help (cl : cluster) w =
    match Shell.try_inject w.grp with
    | Some _ as r -> r
    | None -> Shell.sweep_mates w.grp ~self:w.id ~start:first_mate steal_batch cl w

  let take cl w =
    match Q.pop_bottom w.deque with Some _ as r -> r | None -> help cl w

  (* Single steals on both probes: batched re-homing would drag a
     foreign pool's backlog into this pool's deques.  The pre-park sweep
     drains the own deque's bottom first. *)
  let probe cl w g ~exhaustive =
    match if exhaustive then Q.pop_bottom w.deque else None with
    | Some _ as r -> r
    | None ->
      Shell.probe_victims g ~exhaustive ~self:w.id ~rng:w.rng steal_one cl w

  module Sh = Shell.Make (struct
    let name = name

    type nonrec task = task
    type nonrec worker = worker
    type ext = unit

    let current = current
    let id w = w.id
    let group w = w.grp
    let metrics w = w.m
    let ring w = w.tr
    let make_ext _ _ = ()

    let make_worker conf () ~id grp m tr =
      {
        id;
        grp;
        deque = Q.create ~capacity:Shell.deque_capacity ();
        rng = Nowa_util.Xoshiro.make ~seed:(conf.Config.seed + (id * 7919) + 1);
        m;
        tr;
        depth = 0;
      }

    let task_of_thunk f = Task f
    let take = take
    let probe = probe
    let run_task = run_task

    let ready (cl : cluster) =
      Array.fold_left (fun acc w -> acc + Q.size w.deque) 0 cl.workers

    let stack_stats = None
    let after_join _ = ()
  end)

  include Sh

  (* OpenMP taskwait / TBB wait_for_all: execute tasks until the frame's
     children are gone.  LIFO from the own deque keeps the helper on its
     own subtree most of the time.  Helping stays inside the pool even
     with spill-over on: a blocked waiter dragging foreign work onto its
     stack would couple the pools' latency. *)
  let wait_for cl w fr =
    w.m.suspensions <- w.m.suspensions + 1;
    Ring.emit w.tr Ev.Suspend 0;
    let bo = Nowa_util.Backoff.make () in
    while Atomic.get fr.pending > 0 do
      match Q.pop_bottom w.deque with
      | Some t ->
        Nowa_util.Backoff.reset bo;
        run_task cl w t
      | None -> (
        match Id.waiting with
        | Waiting.Local_only -> Nowa_util.Backoff.once bo
        | Waiting.Steal_anywhere -> (
          match help cl w with
          | Some t ->
            Nowa_util.Backoff.reset bo;
            run_task cl w t
          | None -> Nowa_util.Backoff.once bo))
    done

  let sync fr =
    let cl, w = get_current () in
    if Atomic.get fr.pending > 0 then wait_for cl w fr
    else w.m.fast_syncs <- w.m.fast_syncs + 1;
    match Atomic.exchange fr.exn_slot None with
    | Some e -> raise e
    | None -> ()

  let scope f =
    ignore (get_current ());
    let fr = { pending = Atomic.make 0; exn_slot = Atomic.make None } in
    match f fr with
    | v ->
      sync fr;
      v
    | exception e ->
      (try sync fr with _ -> ());
      raise e

  (* Pending is raised before the task is visible to thieves, so the
     join counter never needs the lock-or-wait-free machinery of the
     continuation-stealing engines; [body] lowers it when done. *)
  let push fr body =
    let cl, w = get_current () in
    w.m.spawns <- w.m.spawns + 1;
    Health.Beats.beat cl.Shell.hb w.id;
    Ring.emit w.tr Ev.Spawn 0;
    ignore (Atomic.fetch_and_add fr.pending 1);
    Q.push_bottom w.deque (Task body);
    (* One load when nobody sleeps; CAS + signal only for a sleeper. *)
    if Sleepers.wake_one w.grp.gsleepers then w.m.wakeups <- w.m.wakeups + 1

  let spawn fr thunk =
    let p = Promise.make () in
    push fr (fun () ->
        (match thunk () with
        | v -> Promise.fill p v
        | exception e ->
          Promise.fill_exn p e;
          note_exn fr e);
        ignore (Atomic.fetch_and_add fr.pending (-1)));
    p

  let spawn_unit fr thunk =
    push fr (fun () ->
        (try thunk () with e -> note_exn fr e);
        ignore (Atomic.fetch_and_add fr.pending (-1)))

  let get p = Promise.get ~runtime:name p
  let await p = Promise.await ~runtime:name p
end
