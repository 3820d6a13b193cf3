(** Help-first scheduler engines (Section II-B's child-stealing
    alternative): the structural models of TBB, LLVM libomp and GCC
    libgomp, the Figure 10 / Table III baselines.

    At a fork point the {e child task} is published and the parent
    continues immediately (help-first).  Because the parent increments
    its frame's pending count {e before} publishing the child, the
    worker/thief race of Figure 6 does not arise here — the price is
    paid elsewhere: every child is a heap-allocated task, and joins are
    blocking-with-helping rather than suspending.

    [sync] is modelled on OpenMP's [taskwait]: the waiting strand loops,
    executing tasks until its children have all finished.  The baselines
    differ only in where a spawned child goes and where a waiting strand
    looks for work, so the join exists once ({!Make}) over a small
    {!STORE}:

    - {!Deques} (TBB, libomp): per-worker deques; the owner pops LIFO
      and idle workers grab batches from pool-mates.  Its {!Waiting.t}
      says what a waiter may run.  [Steal_anywhere] (TBB, libomp untied
      tasks) helps from its own deque first and steals from victims
      otherwise.  [Local_only] (libomp tied tasks): the task-scheduling
      constraint pins the waiter to tasks from its own deque; when that
      runs dry it can only spin.  This is the structural reason tied
      tasks over- or under-perform untied ones per benchmark in
      Figure 10/Table III.
    - {!Fifo} (libgomp): every spawned task goes through one
      mutex-protected FIFO per pool ({!Nowa_deque.Central_queue}); every
      idle worker and every waiting strand polls it.  With fine-grained
      tasks all scheduling traffic serialises on the one lock — which is
      why libgomp's speedup collapses in Figure 10, and why this store's
      does too.  A multi-pool topology shards the lock.  Routed roots do
      not go through it: like every preset's, they sit in the shell's
      lock-free routed queue.

    Every store's [take] has one shape, built once in {!Make}: the
    store's own work, then the pool's routed roots, then pool-mates.
    Helping at a taskwait stays inside the pool even with spill-over
    on: a blocked waiter dragging foreign work onto its stack would
    couple the pools' latency.  Pools, routing, the idle loop and [run]
    come from {!Shell}. *)

module Ring = Nowa_trace.Ring
module Ev = Nowa_trace.Event

type task = Task of (unit -> unit)

type 'st worker = {
  id : int;
  grp : Shell.group;
  m : Metrics.worker;
  tr : Ring.t;
  tracing : bool;  (* [tr] is enabled; tested by [emit] *)
  mutable depth : int;  (* task nesting (helping at a taskwait): only the
                           outermost start/end delimits a busy slice *)
  st : 'st;  (* the store's per-worker half *)
}

type ('st, 'ext) cluster = ('st worker, 'ext) Shell.cluster

(* Every emission site goes through [emit], as in {!Engine.Make}, so
   tracing off costs a load and a branch: under [-opaque] a bare
   [Ring.emit] is a generic cross-module call even on the disabled ring.
   A shared helper in another module would be such a call again. *)
let[@inline] emit w kind arg = if w.tracing then Ring.emit w.tr kind arg

(* Task bodies never raise ([spawn] and the routed wrapper catch), so
   the depth bookkeeping needs no exception handling. *)
let run_task (_ : _ cluster) w (Task f) =
  w.m.tasks <- w.m.tasks + 1;
  Health.Inject.task_start w.id;
  w.depth <- w.depth + 1;
  if w.depth = 1 then emit w Ev.Task_start 0;
  f ();
  if w.depth = 1 then emit w Ev.Task_end 0;
  w.depth <- w.depth - 1

module Waiting = struct
  type t = Steal_anywhere | Local_only
end

(** Where a spawned child goes and where a worker looks for one: the
    only code that differs between the help-first presets. *)
module type STORE = sig
  type t
  type ext  (** per-run state shared by the pool's workers *)

  val make_ext : Shell.group array -> ext
  val make : Config.t -> ext -> Shell.group -> id:int -> t

  val push : t worker -> task -> unit
  (** Publish a spawned child; the join wakes a pool sleeper after it. *)

  val own : (t, ext) cluster -> t worker -> task option
  (** The worker's own share: the first step of every [take]. *)

  val mates : (t, ext) cluster -> t worker -> task option
  (** Pool-mates: the last step of [take], after the routed roots. *)

  val waiting : Waiting.t
  (** What a strand waiting at [sync] may run: [Steal_anywhere] helps
      with a whole [take]; [Local_only] only with [own]. *)

  val probe :
    (t, ext) cluster -> t worker -> Shell.group -> exhaustive:bool ->
    task option
  (** {!Shell.POLICY.probe}. *)

  val ready : (t, ext) cluster -> int
  (** {!Shell.POLICY.ready}. *)
end

module Deques
    (QM : Nowa_deque.Ws_deque_intf.MAKER)
    (W : sig
      val waiting : Waiting.t
    end) : STORE = struct
  module Q = QM (struct
    type t = task

    let dummy = Task ignore
  end)

  type t = { deque : Q.t; rng : Nowa_util.Xoshiro.t }
  type ext = unit

  let make_ext _ = ()

  let make conf () _ ~id =
    {
      deque = Q.create ~capacity:Shell.deque_capacity ();
      rng = Nowa_util.Xoshiro.make ~seed:(conf.Config.seed + (id * 7919) + 1);
    }

  let push w t = Q.push_bottom w.st.deque t
  let waiting = W.waiting

  let no_commit _ = ()

  (* A victim probe: [max] tasks under one acquisition (a batched,
     [steal_half]-style grab) or a single steal when [max = 1]. *)
  let steal (cl : (t, ext) cluster) w ~max v =
    w.m.steal_attempts <- w.m.steal_attempts + 1;
    emit w Ev.Steal_attempt v;
    match Q.steal_batch cl.workers.(v).st.deque ~max ~on_commit:no_commit with
    | [] ->
      emit w Ev.Steal_abort v;
      None
    | head :: extra ->
      w.m.steals <- w.m.steals + 1 + List.length extra;
      emit w Ev.Steal_commit v;
      (* The surplus moves to the thief's own deque so the next LIFO pops
         serve it without touching the victim again.  Tasks are plain
         closures, so re-homing them is always legal. *)
      List.iter
        (fun t ->
          try Q.push_bottom w.st.deque t
          with Nowa_deque.Ws_deque_intf.Full -> run_task cl w t)
        extra;
      Some head

  let steal_one cl w v = steal cl w ~max:1 v
  let steal_batch cl w ~sweep v = steal cl w ~max:sweep v
  let first_mate _ w ~mates ~sweep:_ = Nowa_util.Xoshiro.int w.st.rng mates

  (* Own deque bottom: LIFO keeps the worker on its own subtree. *)
  let own _ w = Q.pop_bottom w.st.deque

  (* Up to [Config.steal_sweep] pool-mates, each a batched grab of up to
     that many tasks. *)
  let mates cl w = Shell.sweep_mates w.grp ~self:w.id ~start:first_mate steal_batch cl w

  (* Single steals on both probes: batched re-homing would drag a
     foreign pool's backlog into this pool's deques.  The pre-park sweep
     drains the own deque's bottom first. *)
  let probe cl w g ~exhaustive =
    match if exhaustive then Q.pop_bottom w.st.deque else None with
    | Some _ as r -> r
    | None ->
      Shell.probe_victims g ~exhaustive ~self:w.id ~rng:w.st.rng steal_one cl w

  let ready (cl : (t, ext) cluster) =
    Array.fold_left (fun acc w -> acc + Q.size w.st.deque) 0 cl.workers
end

module Fifo : STORE = struct
  module Cq = Nowa_deque.Central_queue

  (* The pool's FIFO, and the surplus of the last batched grab, served
     before the lock is touched again: the [steal_half]-style
     amortisation for one queue. *)
  type t = { fifo : task Cq.t; mutable stash : task list }
  type ext = task Cq.t array  (* one FIFO per pool, by [gid] *)

  let make_ext groups = Array.map (fun _ -> Cq.create ()) groups
  let make _ fifos (g : Shell.group) ~id:_ = { fifo = fifos.(g.gid); stash = [] }
  let push w t = Cq.push w.st.fifo t

  (* A waiter polls the FIFO and the routed queue, as an idle worker. *)
  let waiting = Waiting.Steal_anywhere

  (* Stash, then one batched grab of up to [Config.steal_sweep] tasks
     from the pool's FIFO, oldest first. *)
  let own (cl : (t, ext) cluster) w =
    match w.st.stash with
    | t :: rest ->
      w.st.stash <- rest;
      Some t
    | [] -> (
      let gid = w.grp.gid in
      w.m.steal_attempts <- w.m.steal_attempts + 1;
      emit w Ev.Steal_attempt gid;
      match Cq.pop_batch w.st.fifo ~max:(Int.max 1 cl.conf.Config.steal_sweep) with
      | [] ->
        emit w Ev.Steal_abort gid;
        None
      | head :: rest ->
        w.m.steals <- w.m.steals + 1 + List.length rest;
        emit w Ev.Steal_commit gid;
        w.st.stash <- rest;
        Some head)

  (* The pool's workers share one FIFO: there is no mate to probe. *)
  let mates _ _ = None

  (* The stash is empty whenever [own] has come up empty, so a pool's
     queued children are all in its FIFO: the pre-park sweep and a
     spill-over probe pop it under its lock. *)
  let probe (cl : (t, ext) cluster) _ (g : Shell.group) ~exhaustive:_ =
    Cq.pop cl.ext.(g.gid)

  let ready (cl : (t, ext) cluster) = Array.fold_left (fun acc q -> acc + Cq.size q) 0 cl.ext
end

module Make
    (S : STORE)
    (Id : sig
      val name : string
      val description : string
    end) : Runtime_intf.S = struct
  let name = Id.name
  let description = Id.description

  type 'a promise = 'a Promise.t

  type frame = { pending : int Atomic.t; exn_slot : exn option Atomic.t }
  type scope = frame

  let current : ((S.t, S.ext) cluster * S.t worker) option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let get_current () =
    match Domain.DLS.get current with
    | Some pw -> pw
    | None -> failwith (name ^ ": spawn/sync/scope used outside of run")

  let note_exn fr e =
    ignore (Atomic.compare_and_set fr.exn_slot None (Some e))

  (* A routed root as a task of the worker that popped it; a
     [spawn_unit_on] thunk's exception is caught and logged here. *)
  let task_of_thunk w f =
    Task (fun () -> try f () with e -> Shell.routed_raised ~runtime:name w.grp e)

  (* Own store, then routed roots (they have no other worker to run
     them), then pool-mates. *)
  let take cl w =
    match S.own cl w with
    | Some _ as r -> r
    | None -> (
      match Shell.try_inject w.grp task_of_thunk w with
      | Some _ as r -> r
      | None -> S.mates cl w)

  (* One round of a strand waiting at [sync]; never leaves the pool. *)
  let help =
    match S.waiting with Waiting.Steal_anywhere -> take | Waiting.Local_only -> S.own

  module Sh = Shell.Make (struct
    let name = name

    type nonrec task = task
    type nonrec worker = S.t worker
    type ext = S.ext

    let current = current
    let id w = w.id
    let group w = w.grp
    let metrics w = w.m
    let ring w = w.tr
    let make_ext _ groups = S.make_ext groups

    (* [depth] is written twice per task: padded, as [Engine]'s. *)
    let make_worker conf ext ~id grp m tr =
      Nowa_util.Padding.isolate (fun () ->
          {
            id;
            grp;
            m;
            tr;
            tracing = tr.Ring.enabled;
            depth = 0;
            st = S.make conf ext grp ~id;
          })

    let task_of_thunk = task_of_thunk
    let take = take
    let probe = S.probe
    let run_task = run_task
    let ready = S.ready
    let stack_stats = None
    let after_join _ = ()
  end)

  include Sh

  (* OpenMP taskwait / TBB wait_for_all: run tasks until the frame's
     children are gone.  An empty round is counted, like the idle loop's:
     a tied waiter's round is a pop of its own deque, no steal attempt,
     and a waiter whose children run on pool-mates is waiting, not
     stalled. *)
  let wait_for cl w fr =
    w.m.suspensions <- w.m.suspensions + 1;
    emit w Ev.Suspend 0;
    let bo = Nowa_util.Backoff.make () in
    while Atomic.get fr.pending > 0 do
      match help cl w with
      | Some t ->
        Nowa_util.Backoff.reset bo;
        run_task cl w t
      | None ->
        w.m.idle_rounds <- w.m.idle_rounds + 1;
        Nowa_util.Backoff.once bo
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

  (* Pending is raised before the task is visible to other workers, so
     the join counter never needs the lock-or-wait-free machinery of the
     continuation-stealing engines; [body] lowers it when done. *)
  let push fr body =
    let _, w = get_current () in
    w.m.spawns <- w.m.spawns + 1;
    emit w Ev.Spawn 0;
    ignore (Atomic.fetch_and_add fr.pending 1);
    S.push w (Task body);
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
