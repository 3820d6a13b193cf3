(** Central-queue scheduler engine: the structural model of GCC libgomp's
    task support.

    Every spawned task goes through one mutex-protected FIFO per pool;
    every idle worker and every strand waiting at a [sync] polls the same
    queue.  With fine-grained tasks all scheduling traffic serialises on
    the one lock — which is why libgomp's speedup collapses in Figure 10
    of the paper, and why this engine's does too.

    Micropools partition the workers into named groups, each with its
    own central queue and SNZI indicator; a multi-pool topology
    therefore also shards the lock, which is the closest thing this
    engine has to scalability.  The central queues carry spawned tasks
    only: routed roots, pools, the idle loop and [run] come from
    {!Shell}, as for the work-stealing families. *)

module Make (Id : sig
  val name : string
  val description : string
end) : Runtime_intf.S = struct
  let name = Id.name
  let description = Id.description

  module Ring = Nowa_trace.Ring
  module Ev = Nowa_trace.Event

  type 'a promise = 'a Promise.t

  type frame = { pending : int Atomic.t; exn_slot : exn option Atomic.t }
  type scope = frame

  type task = Task of (unit -> unit)

  (* One pool's central queue. *)
  type central = {
    queue : task Nowa_deque.Central_queue.t;
    work : Nowa_sync.Snzi.t;
        (* Non-zero indicator over the queue: spawners arrive before the
           push, poppers depart after the grab ([depart_n]: one CAS per
           batch), so surplus >= queue length always and [query] = false
           proves the queue is empty.  Idle workers read the padded SNZI
           root instead of hammering the central mutex — the query-skip.
           SNZI departs must retire units at their arrival leaf, and a
           queued task carries no leaf memory, so the indicator runs
           single-leaf: the leaf CAS traffic matches what a plain atomic
           counter would cost, while the query side stays one uncontended
           root read. *)
  }

  type worker = {
    id : int;
    grp : task Shell.group;
    central : central;  (* this worker's pool's queue *)
    m : Metrics.worker;
    tr : Ring.t;
    mutable depth : int;  (* task nesting (helping at sync): only the
                             outermost start/end delimits a busy slice *)
    mutable stash : task list;
        (* surplus of the last batched grab, served before the lock is
           touched again — the steal_half-style amortisation for the
           central queue *)
  }

  (* [ext]: every pool's central queue, by pool index. *)
  type cluster = (task, worker, central array) Shell.cluster

  let current : (cluster * worker) option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let get_current () =
    match Domain.DLS.get current with
    | Some pw -> pw
    | None -> failwith (name ^ ": spawn/sync/scope used outside of run")

  let note_exn fr e =
    ignore (Atomic.compare_and_set fr.exn_slot None (Some e))

  (* Task bodies never raise: [spawn] and the shell wrap the thunk in a
     match, so the straight-line depth bookkeeping is exception-safe. *)
  let run_task (cl : cluster) w (Task f) =
    w.m.tasks <- w.m.tasks + 1;
    w.depth <- w.depth + 1;
    if w.depth = 1 then Ring.emit w.tr Ev.Task_start 0;
    f ();
    if w.depth = 1 then Ring.emit w.tr Ev.Task_end 0;
    w.depth <- w.depth - 1;
    Health.Beats.beat cl.Shell.hb w.id

  let unstash w =
    match w.stash with
    | t :: rest ->
      w.stash <- rest;
      Some t
    | [] -> None

  (* Batched grab from one pool's queue, behind its query-skip. *)
  let poll (cl : cluster) w (g : task Shell.group) =
    let c = cl.ext.(g.gid) in
    w.m.steal_attempts <- w.m.steal_attempts + 1;
    Health.Beats.beat cl.hb w.id;
    Ring.emit w.tr Ev.Steal_attempt g.gid;
    if not (Nowa_sync.Snzi.query c.work) then begin
      (* Indicator at zero proves the queue is empty: skip the mutex. *)
      Ring.emit w.tr Ev.Steal_abort g.gid;
      None
    end
    else begin
      match
        Nowa_deque.Central_queue.pop_batch c.queue
          ~max:(max 1 cl.conf.Config.steal_sweep)
      with
      | [] ->
        Ring.emit w.tr Ev.Steal_abort g.gid;
        None
      | head :: rest ->
        (* One batched depart retires the whole grab's units. *)
        Nowa_sync.Snzi.depart_n c.work ~leaf:0 (1 + List.length rest);
        Ring.emit w.tr Ev.Steal_commit g.gid;
        w.stash <- rest;
        Some head
    end

  (* Stash, then routed roots, then the pool's queue. *)
  let take cl w =
    match unstash w with
    | Some _ as r -> r
    | None -> (
      match Shell.try_inject w.grp with
      | Some _ as r -> r
      | None -> poll cl w w.grp)

  (* The pre-park probe takes the stash (owner-local) and then pops the
     queue itself: the central pops are mutex-synchronised, and this
     probe is the park protocol's lost-wakeup guard, so it must not
     trust the query-skip. *)
  let probe (cl : cluster) w (g : task Shell.group) ~exhaustive =
    if not exhaustive then poll cl w g
    else
      match unstash w with
      | Some _ as r -> r
      | None -> (
        let c = cl.ext.(g.gid) in
        match Nowa_deque.Central_queue.pop c.queue with
        | Some _ as r ->
          Nowa_sync.Snzi.depart c.work ~leaf:0;
          r
        | None -> None)

  module Sh = Shell.Make (struct
    let name = name

    type nonrec task = task
    type nonrec worker = worker
    type ext = central array

    let current = current
    let id w = w.id
    let group w = w.grp
    let metrics w = w.m
    let ring w = w.tr

    let make_ext _ groups =
      Array.map
        (fun _ ->
          {
            queue = Nowa_deque.Central_queue.create ();
            work = Nowa_sync.Snzi.create ~leaves:1 ();
          })
        groups

    let make_worker _ ext ~id (grp : task Shell.group) m tr =
      { id; grp; central = ext.(grp.gid); m; tr; depth = 0; stash = [] }

    let task_of_thunk f = Task f
    let take = take
    let probe = probe
    let run_task = run_task

    let ready (cl : cluster) =
      Array.fold_left
        (fun acc c -> acc + Nowa_deque.Central_queue.size c.queue)
        0 cl.ext

    let stack_stats = None
    let after_join _ = ()
  end)

  include Sh

  let wait_for cl w fr =
    w.m.suspensions <- w.m.suspensions + 1;
    Ring.emit w.tr Ev.Suspend 0;
    let bo = Nowa_util.Backoff.make () in
    while Atomic.get fr.pending > 0 do
      match find cl w with
      | Some t ->
        Nowa_util.Backoff.reset bo;
        run_task cl w t
      | None -> Nowa_util.Backoff.once bo
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

  (* Arrive before push: a task in the queue always has a visible unit
     behind it, so a zero indicator proves the queue is empty.  [body]
     lowers the frame's pending count when done. *)
  let push fr body =
    let cl, w = get_current () in
    w.m.spawns <- w.m.spawns + 1;
    Health.Beats.beat cl.Shell.hb w.id;
    Ring.emit w.tr Ev.Spawn 0;
    ignore (Atomic.fetch_and_add fr.pending 1);
    Nowa_sync.Snzi.arrive w.central.work ~leaf:0;
    Nowa_deque.Central_queue.push w.central.queue (Task body);
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
