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

    This module keeps only what the paper varies: spawn, sync and how a
    worker finds work (its own deque, then pool-mates, with the full
    steal protocol).  Pools, routing, the idle loop, the park protocol
    and [run]'s lifecycle come from {!Shell}, which never sits on the
    spawn/sync path.

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

    {2 Re-exposure deadline}

    In a flat loop of spawns the deque is empty at every spawn (each
    child's continuation is popped back before the next), so the rule
    above alone exposes every iteration: an effect, a fresh fiber and,
    on two workers, a steal of the loop per request.  So a frame that
    has already exposed (its [exposed] flag, set in [handle_spawn] and
    cleared when the frame is recycled) exposes again from an empty
    deque only once its worker's [reexpose_at] deadline has passed, and
    that re-exposure moves the deadline the worker's [period] on;
    otherwise the child runs inline.  This is heartbeat scheduling's
    amortisation (Acar et al., PLDI 2018), with the period following
    steals, as Rito & Paulino bound synchronisation by steals:

    - every worker starts at [reexpose_period_ns];
    - a re-exposed continuation that [after_child]'s pop finds still in
      the deque was offered and not taken, so the worker's period
      doubles, up to [reexpose_cap_ns];
    - a lost continuation (a thief took one) resets the period, and a
      worker that steals a continuation resets both its period and its
      deadline, so it offers the loop at its next spawn.

    Who reads the clock.  A re-exposure is worth its cost only if a
    pool-mate is idle to take it, and a failed steal is the evidence:
    so the deadline is checked on the steal path, by thieves, while the
    busy worker reads a flag.  Each worker carries a plain [offer] flag:

    - a pool-mate whose steal from it fails (or, with spill-over, a
      thief from another pool) raises it once [Clock.now_ns] has
      reached its [reexpose_at] (an idle-path clock read, made only
      while the flag is down);
    - [execute]'s steal branch raises it beside the deadline reset, and
      it starts raised, like the deadline at 0;
    - [before_deadline] lowers it.

    An already-exposed frame's spawn from an empty deque then calls
    [before_deadline] (one clock read, which re-exposes once the
    deadline has passed and sets the next one) only if the flag is up,
    or as a fallback if the worker is alone in its pool or a pool-mate
    is asleep ({!Sleepers.any_asleep}, the load [wake_one] makes): then
    nobody can raise the flag, and the clock paces the loop as before.
    Otherwise every pool-mate is busy, and the child runs inline with no
    clock read.  Busy pool-mates are not offered work: while every mate
    is busy, a worker re-exposes only once after its creation and once
    after each steal it makes (the flag's other two sources), where a
    period alone would offer the loop once per period to mates that
    cannot take it.

    A worker running a loop nobody steals thus re-exposes at least once
    per cap while a mate is idle or asleep, and each exposure wakes a
    sleeping pool-mate if there is one: a parked pool-mate gets the loop
    within [reexpose_cap_ns], and once it steals both workers are back
    at the base period.

    - A frame's first exposure is unconditional.  Nested fork-join code
      makes one spawn per frame, so it never reaches the deadline, and a
      fresh scope's spawn still offers its continuation at once: gating
      it too halved fib's speedup on two workers.
    - The deadline and the period are per worker, not per frame, and
      only their worker writes them; thieves write only the flag.  A
      thief that has just taken a loop's continuation exposes at once,
      so the loop spreads to a free worker within one spawn; the
      victim's deadline still paces the victim.  A per-frame deadline
      would be written by whichever worker holds the strand, and would
      make a thief wait out its victim's period.
    - The flag and the deadline are plain fields.  A thief's racy read
      or write moves at most one re-exposure, and every inline decision
      is a legal schedule (the argument of the racy [Q.size] read), so
      the flag adds no synchronisation.

    {2 Frame stamps}

    A domain-local lookup of the current worker on every path would cost
    five per fib node.  Instead [scope] does one lookup and stamps the
    frame with the worker and that worker's [epoch]; [spawn],
    [spawn_unit], both syncs and scope exit use the stamped worker while
    [epoch] still equals the stamp, and otherwise look the worker up
    once and restamp.  A worker bumps its epoch just before it makes a
    continuation resumable elsewhere: before the deque push in
    [handle_spawn], and before the publication in a suspending
    [handle_sync].  The rule needs no new synchronisation:

    - a strand reaches another worker only through one of those two
      handovers (a stolen spawn continuation moves every frame open on
      its fiber, not only the spawner's), and the bump happens-before
      the release that hands the continuation over, the deque push or
      the counter's read-modify-write; so the new worker, having
      acquired it, reads a bumped epoch, and an outer frame whose inline
      child migrated fails the same check;
    - a strand still on its stamping worker reads that worker's own
      latest write, so a match is exact.

    The three places that resume a continuation with the worker already
    in hand restamp the frame they resume: [after_child]'s pop hit,
    [execute]'s steal branch and [resume_frame].  [handle_spawn] and
    [handle_sync] run right after their caller validated the stamp, so
    an exposed spawn makes one lookup, in [after_child], where the child
    may have finished on another worker.  The worker record also carries
    its run's stack pool, so the spawn/sync path reads no [cluster].

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
    existing release/acquire ordering.

    {2 What the path where nothing is stolen pays}

    Dune's dev profile compiles with [-opaque], so no call into another
    module is inlined, and one whose arity the caller cannot see goes
    through [caml_applyN].  Three such calls are kept off the inline
    spawn and the sync of a frame that never exposed:

    - every emission site goes through [emit], which tests the worker's
      immutable [tracing] flag before calling [Ring.emit]: tracing off
      is a load and a branch, not [caml_apply3] into a disabled ring;
    - [sync_on] reads the join counter only when the frame's [exposed]
      flag is set: a frame that never exposed has never forked (the
      argument is at [sync_on]);
    - an inline child's promise is built filled ([Promise.ready],
      [Promise.raised]): one call where [make] and [fill] were two.

    What is left on the inline path is the scope's [Domain.DLS] lookup,
    the deque functor's [Q.size] and the thunk itself; an already-exposed
    frame's spawn from an empty deque adds loads of the [offer] flag and
    the [solo] field and, when both are false, a call that loads the
    sleeper word.  It reads no clock unless a thief raised the flag or
    nobody is left to raise it (see "Re-exposure deadline").

    {2 Ints compared as ints}

    Without flambda, [Stdlib.max] and [Stdlib.min] are compiled once for
    every type, so their comparison is a C call ([caml_greaterequal])
    even on two ints, and polymorphic [compare] and [Hashtbl.hash] are C
    calls too.  The inline spawn reads [Q.size], whose clamp was such a
    [max], on every spawn.  This library, like the deque, sync, server,
    trace and obs libraries, builds with
    [-open Nowa_util.Poly_guard -alert ++polymorphic], so a bare [max],
    [min] or [compare] here fails to compile: write [Int.max],
    [Int.compare], or [Stdlib.compare] where a structural order is
    meant (see {!Nowa_util.Poly_guard}). *)

(* A worker's re-exposure period starts at [reexpose_period_ns] and
   doubles, up to [reexpose_cap_ns], while its re-exposed continuations
   come back untaken (see "Re-exposure deadline" above). *)
let reexpose_period_ns = 20_000
let reexpose_cap_ns = 64 * reexpose_period_ns

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
    mutable fw : Obj.t;  (* the stamping worker; read through [frame_worker] *)
    mutable stamp : int;  (* that worker's [epoch] when it stamped the frame *)
    mutable susp_k : cont;  (* valid iff susp_state = 1 *)
    mutable susp_stack : Stack_pool.stack option;
    mutable exposed : bool;
        (* some spawn of this frame took the exposed path since the frame
           was taken from the free list; set in [handle_spawn] *)
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

  (* The per-worker record belongs to the engine, not the shell, so the
     spawn/sync path reaches every field in one load; the spawn path
     pays only the [w.grp] indirection for its pool. *)
  type worker = {
    id : int;
    grp : Shell.group;
    deque : Q.t;
    mutable offer : bool;
        (* someone may take a loop now: a pool-mate's failed steal found
           [reexpose_at] passed, this worker just stole, or it was just
           created.  Raised by thieves too, lowered by [before_deadline] *)
    mutable reexpose_at : int;
        (* [Clock.now_ns] before which an already-exposed frame's spawn
           runs inline from an empty deque; written only by this worker,
           read by thieves.  It and [offer] sit beside [deque], which a
           thief reads anyway, away from the fields this worker writes
           on every scope and exposed spawn *)
    solo : bool;  (* alone in its pool: no pool-mate can raise [offer] *)
    rng : Nowa_util.Xoshiro.t;
    m : Metrics.worker;
    tr : Ring.t;  (* wait-free event ring; Ring.disabled when not tracing *)
    tracing : bool;  (* [tr] is enabled; tested by [emit] *)
    sp : Stack_pool.t;  (* this run's stack pool *)
    mutable epoch : int;
        (* bumped before this worker makes a continuation resumable
           elsewhere; written only by this worker *)
    mutable period : int;
        (* what the next re-exposure adds to [reexpose_at]; written only
           by this worker, like [reexposed] *)
    mutable reexposed : bool;
        (* this worker's last exposure was a re-exposure; set by
           [before_deadline], read and cleared by [after_child] *)
    mutable stack : Stack_pool.stack option;
    mutable next_victim : int;  (* Round_robin victim scan position *)
    mutable spare : task;  (* recycled task box; [dummy_task] when empty *)
    mutable child_thunk : unit -> Obj.t;
        (* in-flight child relay: written by [handle_spawn], read back at
           the top of the child fiber — never lives across an effect *)
    mutable child_promise : Obj.t Promise.t;
    frames : frame array;  (* free list: pristine frames below [nframes] *)
    mutable nframes : int;
  }

  (* The shell's run record; [ext] is this run's stack pool. *)
  type cluster = (worker, Stack_pool.t) Shell.cluster

  (* Every emission site goes through [emit], so tracing off costs a
     load and a branch: under [-opaque] a bare [Ring.emit] is a generic
     cross-module call even on the disabled ring. *)
  let[@inline] emit w kind arg = if w.tracing then Ring.emit w.tr kind arg

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

  (* The frame's worker field is untyped because frame → worker → deque
     → task → frame would otherwise be one recursive type across the
     deque functor's application.  This is its one reader and [stamp]
     its one writer, and [scope] stamps every frame before its first
     use, so the reader only ever finds a [worker] there. *)
  let[@inline] frame_worker fr : worker = Obj.obj fr.fw

  let current : (cluster * worker) option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let get_current () =
    match Domain.DLS.get current with
    | Some pw -> pw
    | None ->
      failwith (name ^ ": spawn/sync/scope used outside of run")

  (* Stamp [fr] as running on [w], which must be the calling domain's
     worker.  The pointer store (a write barrier) is skipped when the
     frame already names [w], the common case for a frame reused from
     [w]'s own free list or resumed where it was stamped. *)
  let[@inline] stamp fr w =
    if fr.fw != Obj.repr w then fr.fw <- Obj.repr w;
    fr.stamp <- w.epoch

  let[@inline never] restamp fr =
    let _, w = get_current () in
    stamp fr w;
    w

  (* The worker running [fr]'s strand.  The stamp holds while its worker
     has not bumped [epoch] since stamping.  A strand that moved reads a
     bumped epoch: its old worker bumped before the release that handed
     the continuation over (the deque push, or the counter RMW after a
     suspending sync's publication), and the new worker acquired it
     before running the strand.  A strand still on its stamping worker
     reads that worker's own latest write, so a match is exact. *)
  let[@inline] worker_of fr =
    let w = frame_worker fr in
    if w.epoch = fr.stamp then w else restamp fr

  let note_exn fr e =
    ignore (Atomic.compare_and_set fr.exn_slot None (Some e))

  let ensure_stack w =
    match w.stack with
    | Some s -> s
    | None ->
      let s = Stack_pool.acquire w.sp ~worker:w.id in
      w.m.stack_acquires <- w.m.stack_acquires + 1;
      emit w Ev.Stack_acquire 0;
      w.stack <- Some s;
      s

  let drop_stack w =
    match w.stack with
    | None -> ()
    | Some s ->
      Stack_pool.release w.sp ~worker:w.id s;
      w.m.stack_releases <- w.m.stack_releases + 1;
      emit w Ev.Stack_release 0;
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
  let rec resume_frame w fr =
    let claimed = Atomic.exchange fr.susp_state 0 in
    (* claimed = 1 always: the counter designates a unique zero-observer,
       and the continuation is published before the counter can reach 0. *)
    assert (claimed = 1);
    let k = fr.susp_k in
    let stk = fr.susp_stack in
    fr.susp_k <- dummy_cont;
    fr.susp_stack <- None;
    w.m.resumes <- w.m.resumes + 1;
    emit w Ev.Resume 0;
    C.reset fr.counter;
    (match stk with
    | None -> ()
    | Some s ->
      drop_stack w;
      Stack_pool.reactivate w.sp s;
      w.stack <- Some s);
    stamp fr w;
    Effect.Deep.continue k ()

  (* Figure 5, lines 4-5: runs after a spawned child returned.  The child
     may have finished on another worker than the one that spawned it,
     so this is the exposed path's one domain-local lookup.  The
     [reexposed] flag is the worker's, not the frame's: a nested first
     exposure inside the child may consume it, which at worst moves the
     period once in the wrong direction, and every inline decision is a
     legal schedule. *)
  and after_child fr =
    let _, w = get_current () in
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
      if w.reexposed then begin
        (* A re-exposure nobody took: back off. *)
        w.reexposed <- false;
        let p = 2 * w.period in
        w.period <- (if p < reexpose_cap_ns then p else reexpose_cap_ns)
      end;
      stamp fr w;
      Effect.Deep.continue k ()
    end
    else begin
      (* The continuation was stolen: implicit sync. *)
      w.reexposed <- false;
      w.period <- reexpose_period_ns;
      w.m.lost_continuations <- w.m.lost_continuations + 1;
      emit w Ev.Lost_continuation 0;
      if C.child_joined fr.counter then resume_frame w fr
    end

  and exec_child w fr thunk p =
    w.child_thunk <- thunk;
    w.child_promise <- p;
    Effect.Deep.match_with child_body w fr.handler

  (* [spawn] validated [fr]'s stamp just before performing the effect,
     and nothing bumps an epoch in between: the stamped worker is this
     domain's. *)
  and handle_spawn : frame -> (unit -> Obj.t) -> Obj.t Promise.t -> cont -> unit
      =
   fun fr thunk p k ->
    let w = frame_worker fr in
    fr.exposed <- true;
    w.m.spawns <- w.m.spawns + 1;
    emit w Ev.Spawn 0;
    (* Only exposed spawns touch a stack page: an inline child runs on
       the spawner's own frame, like the call it elides. *)
    (match w.stack with
    | Some s -> Stack_pool.touch s ~pages:1
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
    (* [k] carries every frame open on this fiber: once a thief can take
       it, none of their stamps may name this worker. *)
    w.epoch <- w.epoch + 1;
    Q.push_bottom w.deque t;
    (* One atomic load when nobody sleeps — the spawn path stays
       wait-free; the CAS + signal run only against an actual sleeper.
       Only the spawner's own pool is woken: foreign pools find spilled
       work through their pre-park sweep when spill-over is on. *)
    if Sleepers.wake_one w.grp.Shell.gsleepers then w.m.wakeups <- w.m.wakeups + 1;
    exec_child w fr thunk p

  (* Performed by [sync] right after validating [fr]'s stamp, like
     [handle_spawn]. *)
  and handle_sync : frame -> cont -> unit =
   fun fr k ->
    let w = frame_worker fr in
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
          Stack_pool.suspend w.sp s;
          w.stack <- None;
          Some s
        | None -> None
      in
      fr.susp_k <- k;
      fr.susp_stack <- stk;
      (* Whoever resumes [k] may be another worker: bump before the
         publication and the counter RMW that hand it over. *)
      w.epoch <- w.epoch + 1;
      Atomic.set fr.susp_state 1;
      if C.reach_sync fr.counter then resume_frame w fr
      else begin
        w.m.suspensions <- w.m.suspensions + 1;
        emit w Ev.Suspend 0
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
        fw = Obj.repr ();
        stamp = 0;
        susp_k = dummy_cont;
        susp_stack = None;
        exposed = false;
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
     the suspension slot was cleared by its unique claimer.  Slots above
     [nframes] keep their last frame, so the LIFO common case (a scope
     returns the frame it just took) stores nothing: each array store is
     a write barrier. *)
  let[@inline] recycle_frame w fr =
    fr.exposed <- false;
    let n = w.nframes in
    if n < Array.length w.frames then begin
      if w.frames.(n) != fr then w.frames.(n) <- fr;
      w.nframes <- n + 1
    end

  let[@inline] take_frame w =
    let n = w.nframes in
    if n > 0 then begin
      w.nframes <- n - 1;
      w.frames.(n - 1)
    end
    else make_frame ()

  let on_commit t = if t.kind == kind_stolen then C.note_steal t.tfr.counter

  (* One probe of global worker [v]'s deque with the full steal protocol
     ([on_commit] notes the steal in the frame's counter).  A failed
     probe of another worker is the evidence that someone would take its
     loop: once the victim's deadline has passed, raise its [offer] flag
     (see "Re-exposure deadline").  The clock read is on the idle path,
     and the plain read and write race with the victim's own stores and
     other thieves', which at worst moves one re-exposure. *)
  let attempt (cl : cluster) w v =
    w.m.steal_attempts <- w.m.steal_attempts + 1;
    emit w Ev.Steal_attempt v;
    let victim = cl.Shell.workers.(v) in
    match Q.steal victim.deque ~on_commit with
    | Some _ as r ->
      emit w Ev.Steal_commit v;
      r
    | None ->
      emit w Ev.Steal_abort v;
      if
        victim != w
        && (not victim.offer)
        && Nowa_util.Clock.now_ns () >= victim.reexpose_at
      then victim.offer <- true;
      None

  let attempt_mate cl w ~sweep:_ v = attempt cl w v

  let first_mate (cl : cluster) w ~mates ~sweep =
    match cl.conf.Config.victim_policy with
    | Config.Random -> Nowa_util.Xoshiro.int w.rng mates
    | Config.Round_robin ->
      let v = w.next_victim mod mates in
      w.next_victim <- v + sweep;
      v

  (* A root or routed thunk in [w]'s recycled task box: [execute] runs
     it next on [w] and hands the box back to the spare slot. *)
  let task_of_thunk w tfn =
    let t = w.spare in
    if t != dummy_task then begin
      w.spare <- dummy_task;
      t.kind <- kind_root;
      t.tfn <- tfn;
      t
    end
    else { kind = kind_root; tk = dummy_cont; tfn; tfr = dummy_frame }

  let take (cl : cluster) w =
    (* Own deque first: it may hold continuations sitting under a frame
       that suspended; converting one into a parallel strand (with the
       full steal protocol) is both legal and necessary for progress. *)
    match attempt cl w w.id with
    | Some _ as r -> r
    | None -> (
      (* Routed roots next: they are this pool's responsibility and have
         no other worker to run them. *)
      match Shell.try_inject w.grp task_of_thunk w with
      | Some _ as r -> r
      | None -> Shell.sweep_mates w.grp ~self:w.id ~start:first_mate attempt_mate cl w)

  let probe cl w g ~exhaustive =
    Shell.probe_victims g ~exhaustive ~self:w.id ~rng:w.rng attempt cl w

  (* Handler under which a root or routed task runs: spawn/sync effects
     from the task's scopes resolve here.  [run]'s root and [spawn_on]'s
     promise-filling wrapper never raise, so an exception here is a
     [spawn_unit_on] thunk's, surfacing on whichever worker holds its
     strand by then. *)
  let root_exn e = Shell.routed_raised ~runtime:name (snd (get_current ())).grp e

  let root_handler : (unit, unit) Effect.Deep.handler =
    { retc = ignore; exnc = root_exn; effc }

  let execute (_ : cluster) w (t : task) =
    w.m.tasks <- w.m.tasks + 1;
    Health.Inject.task_start w.id;
    ignore (ensure_stack w);
    emit w Ev.Task_start 0;
    (if t.kind == kind_root then begin
       let f = t.tfn in
       recycle_task w t;
       Effect.Deep.match_with f () root_handler
     end
     else begin
       let k = t.tk and fr = t.tfr in
       (* The box is ours after the steal/pop commit: strip it and hand
          it to this worker's spare slot before resuming. *)
       recycle_task w t;
       w.m.steals <- w.m.steals + 1;
       (* A thief offers the loop it took at its next spawn. *)
       w.period <- reexpose_period_ns;
       w.reexpose_at <- 0;
       w.offer <- true;
       (* Invariant II: α is bumped by the (unique) main-path control
          flow, here, just before the stolen continuation resumes. *)
       C.note_resume fr.counter;
       stamp fr w;
       Effect.Deep.continue k ()
     end);
    emit w Ev.Task_end 0

  (* Frames cached per worker; deeper recycling simply falls back to the
     GC.  Completed scopes return frames innermost-first, so the steady-
     state free-list depth is tiny — the slack absorbs bursts. *)
  let frame_cache = 64

  module Sh = Shell.Make (struct
    let name = name

    type nonrec task = task
    type nonrec worker = worker
    type ext = Stack_pool.t

    let current = current
    let id w = w.id
    let group w = w.grp
    let metrics w = w.m
    let ring w = w.tr
    let make_ext conf _ = Stack_pool.create conf

    let make_worker conf sp ~id grp m tr =
      (* Worker records hold hot mutable fields (spare slot, stack,
         frame-list cursor); one domain allocates them all, so each is
         padded to keep its fields off its neighbours' lines. *)
      Nowa_util.Padding.isolate (fun () ->
          {
            id;
            grp;
            deque = Q.create ~capacity:Shell.deque_capacity ();
            (* Up, like the deadline at 0: a flat loop's second spawn
               re-exposes at once. *)
            offer = true;
            reexpose_at = 0;
            solo = grp.Shell.ghi - grp.Shell.glo = 1;
            rng = Nowa_util.Xoshiro.make ~seed:(conf.Config.seed + (id * 7919) + 1);
            m;
            tr;
            tracing = tr.Ring.enabled;
            sp;
            epoch = 0;
            period = reexpose_period_ns;
            reexposed = false;
            stack = None;
            next_victim = id + 1;
            spare = dummy_task;
            child_thunk = dummy_thunk;
            child_promise = dummy_promise;
            frames = Array.make frame_cache dummy_frame;
            nframes = 0;
          })

    let task_of_thunk = task_of_thunk
    let take = take
    let probe = probe
    let run_task = execute

    let ready (cl : cluster) =
      Array.fold_left (fun acc w -> acc + Q.size w.deque) 0 cl.workers

    let stack_stats =
      Some
        (fun (cl : cluster) ->
          let st = cl.ext in
          {
            Metrics.allocated_stacks = Stack_pool.allocated_stacks st;
            live_stacks = Stack_pool.live_stacks st;
            max_rss_pages = Stack_pool.max_rss_pages st;
            madvise_calls = Stack_pool.madvise_calls st;
            pool_hits = Stack_pool.global_pool_hits st;
          })

    (* Fold the pages still held by quiescent workers into the RSS
       watermark before it is reported. *)
    let after_join (cl : cluster) =
      Array.iter
        (fun w ->
          match w.stack with Some s -> Stack_pool.sync_rss cl.ext s | None -> ())
        cl.workers
  end)

  (* The explicit sync of [fr], whose stamp [w] the caller validated;
     returns the worker the strand holds once the sync is passed.  Only
     a frame that exposed can have had a continuation stolen: the flag is
     written before the push that offers one to a thief and cleared only
     by [recycle_frame], so a frame that never exposed skips the counter.
     A strand that migrated reads the flag after acquiring the frame,
     through the steal or through the counter's read-modify-write. *)
  let sync_on w fr =
    let w =
      if fr.exposed && C.forked fr.counter then
        if C.pending_hint fr.counter = 0 then begin
          (* Fused explicit sync: all stolen strands have joined, so
             [reach_sync] is guaranteed to succeed (see [handle_sync]) —
             complete the sync inline without even capturing the
             continuation.  This is the post-steal analogue of the
             never-forked fast path below. *)
          let ok = C.reach_sync fr.counter in
          assert ok;
          w.m.fused_syncs <- w.m.fused_syncs + 1;
          C.reset fr.counter;
          w
        end
        else begin
          Effect.perform (Sync fr);
          (* The strand may resume on another worker, for which
             [resume_frame] restamped the frame. *)
          worker_of fr
        end
      else begin
        w.m.fast_syncs <- w.m.fast_syncs + 1;
        w
      end
    in
    (* Every writer of the slot has joined by now, so a plain read
       suffices and the slot is almost always empty. *)
    match Atomic.get fr.exn_slot with
    | None -> w
    | Some e ->
      Atomic.set fr.exn_slot None;
      raise e

  let sync fr = ignore (sync_on (worker_of fr) fr)

  (* The scope's one domain-local lookup; its spawns and syncs read the
     worker from the frame's stamp. *)
  let scope f =
    let _, w = get_current () in
    let fr = take_frame w in
    stamp fr w;
    match f fr with
    | v ->
      (* The strand may have migrated: recycle to wherever the main path
         landed. *)
      recycle_frame (sync_on (worker_of fr) fr) fr;
      v
    | exception e ->
      (* Fully strict: join the children even on the exceptional path;
         the original exception wins over any child exception. *)
      (try sync fr with _ -> ());
      recycle_frame (worker_of fr) fr;
      raise e

  (* The clock check: true (inline) while the worker's deadline is
     ahead; otherwise the spawn re-exposes, moves the deadline the
     worker's period on and marks the exposure for [after_child].  It
     lowers a raised [offer] flag either way: a flag raised on a stale
     deadline costs this one clock read. *)
  let[@inline never] before_deadline w =
    if w.offer then w.offer <- false;
    let now = Nowa_util.Clock.now_ns () in
    if now < w.reexpose_at then true
    else begin
      w.reexpose_at <- now + w.period;
      w.reexposed <- true;
      false
    end

  (* Read only for a frame that has already exposed, from an empty deque:
     true (inline) unless someone could take the loop now.  A raised
     [offer] flag says so (most often: an idle pool-mate found the
     deadline passed); a worker alone in its pool, or one with a
     pool-mate asleep, has
     nobody to raise it, so it falls back to the clock.  Otherwise every
     pool-mate is busy, and the child runs inline without a clock read. *)
  let[@inline] not_offered w =
    if w.offer || w.solo || Sleepers.any_asleep w.grp.Shell.gsleepers then
      before_deadline w
    else true

  (* Lazy exposure: true when this spawn should run its child inline,
     because the worker already holds a stealable continuation, or
     because [fr] has exposed before and nobody is due the loop (see
     [not_offered]).  The spawn is still a spawn point for the counters
     (the watchdog's progress) and the trace (arg 1 marks it inline).
     A stale size read is harmless either way: a thief racing us to the
     last element only delays the next exposure, and a push onto a
     non-empty deque is the eager schedule. *)
  let[@inline] inline_spawn w fr =
    if Q.size w.deque > 0 || (fr.exposed && not_offered w) then begin
      w.m.spawns <- w.m.spawns + 1;
      w.m.inlined <- w.m.inlined + 1;
      emit w Ev.Spawn 1;
      true
    end
    else false

  (* An inline child's exception lands where the exposed path's [exnc]
     puts it: in the promise and in the frame, to surface at the sync. *)
  let spawn (type a) fr (thunk : unit -> a) : a promise =
    if inline_spawn (worker_of fr) fr then
      match thunk () with
      | v -> Promise.ready v
      | exception e ->
        note_exn fr e;
        Promise.raised e
    else begin
      let p : a promise = Promise.make () in
      (* Uniform-representation coercions: every OCaml function value
         uses the generic calling convention, so a [unit -> a] thunk and
         an [a Promise.t] can travel through the monomorphic effect; the
         value is only ever read back at type [a] (in [Promise.get]). *)
      Effect.perform
        (Spawn
           (fr, (Obj.magic thunk : unit -> Obj.t), (Obj.magic p : Obj.t Promise.t)));
      p
    end

  (* Promise-free spawn for request-shaped work: the only allocation on
     the dispatch path is the effect value itself. *)
  let spawn_unit fr thunk =
    if inline_spawn (worker_of fr) fr then (try thunk () with e -> note_exn fr e)
    else
      Effect.perform
        (Spawn (fr, (Obj.magic thunk : unit -> Obj.t), dummy_promise))

  let get p = Promise.get ~runtime:name p
  let await p = Promise.await ~runtime:name p

  (* Run, the pool routing and the last-run report come from the shell. *)
  include Sh
end
