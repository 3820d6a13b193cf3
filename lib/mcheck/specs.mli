(** Model-checkable scenarios over the platform's coordination code.

    The deques, join counters (with their spinlock), sleeper registry,
    inject queue and KV store reach these specs as build-time copies of
    their [lib/**] sources compiled against traced primitives (see the
    library's dune rules and [traced.ml]): every [Atomic] operation is
    a scheduling point, [Mutex] and [Condition] block instead of
    spinning, and a spin loop blocks until a cell it read since its
    previous spin round changes.  A spec here is a harness — a scenario, an oracle, and
    where useful a deliberately broken caller-side control — never a
    second copy of the protocol.

    Hand-written models remain only for what ships nowhere: the naive
    counter of the paper's Figure 6. *)

type spec = unit -> (unit -> unit) list * (unit -> bool)

val deque_spec :
  ?capacity:int -> ?batch:int -> pushes:int -> pops:int -> thieves:int ->
  [ `Chase_lev | `The_queue | `Abp | `Locked ] -> spec
(** The shipped deque: an owner pushes [1..pushes] and then pops [pops]
    times, racing [thieves] thieves that each make one [steal], or with
    [batch] one [steal_batch ~max:batch].  The conservation invariant is
    the re-homing guarantee: every pushed element is consumed exactly
    once or still counted by the deque's own [size].  A small
    [capacity] (the minimum ring is 8 slots) makes the pushes grow the
    deque under the steals. *)

val naive_counter_spec : spec
(** The {e hazardous} protocol of the paper's Figure 6: a plain
    active-strand counter where the thief increments {e after} stealing
    and the sync point checks the counter before publishing the
    suspension.  The checker finds the lost wake-up. *)

val join_counter_spec : [ `Wait_free | `Lock ] -> spec
(** The shipped [Wait_free_counter] (Nowa, Section IV) or [Lock_counter]
    (Fibril, Listing 2) in one frame with one spawn: the worker runs the
    child and pops its continuation while a thief races to steal it,
    with the main path following [Engine.sync] (never forked, fused, or
    publish then [reach_sync]).  The sync point must be passed exactly
    once and never while the child runs. *)

val sleeper_spec :
  ?variant:[ `Good | `Check_before_announce ] -> workers:int -> tasks:int -> spec
(** No lost wake-up over the real [Sleepers]: [workers] workers run a
    bounded take / [Shell.park_round] loop against a spawner pushing
    [tasks] tasks, each push followed by [wake_one].  Pending work must
    imply some worker exited awake.  [`Check_before_announce] is the
    broken caller order (re-check {e before} announcing) — the checker
    exhibits the lost wake-up that announce-first prevents. *)

val sleeper_wake_cancel_spec : wakers:int -> spec
(** One worker announces then cancels while [wakers] concurrent
    [wake_one] calls race it: exactly one side wins the mask bit, at
    most one token is minted (and is consumed by the worker when it lost
    the race), the wake epoch counts exactly the successful wakes and
    the stamp exactly one ownership transition. *)

val sleeper_shutdown_spec : workers:int -> spec
(** Workers run a park round with nothing to sweep while a closer
    stores [finished] and runs [wake_all]; no worker may remain parked
    after shutdown. *)

val kv_spec :
  ?variant:[ `Good | `No_recheck | `Unordered ] ->
  [ `Points | `Multi_point | `Multi_overlap | `Multi_span ] ->
  spec
(** The shipped [Kv.exec] (lib/server/kv.ml), one call per thread on a
    store of two shards with one bucket each.  [`Points] races two
    [Add]s on one shard: an idle claimant against a pusher, or two
    pushers.  The others race a [Multi_put] over both shards, which
    claims the two flags in ascending order and waits behind a held
    one: against an [Add] on the second shard ([`Multi_point]), a
    [Multi_get] of the second shard's key ([`Multi_overlap]), or a
    [Multi_get] of both keys listed in the opposite order
    ([`Multi_span]).  Invariant: every call returns, the outcomes and
    final bindings are those of some serial order of the calls, and the
    store ends quiescent (mailboxes empty, depths 0, flags free).  The
    variants run dune-generated copies of the store: [`No_recheck]
    drops the combiner's post-release mailbox re-check; [`Unordered]
    claims a multi-key op's shards in key order, which deadlocks
    [`Multi_span]. *)

val watchdog_park_spec :
  ?variant:[ `Good | `No_waiting_flag ] -> scans:int -> spec
(** The watchdog's parked-vs-stalled rule over the real registry: a
    worker that has announced and is about to park is woken
    ([wake_one] claims its mask bit, bumps the wake stamp, posts a
    token) while a monitor samples heartbeat/stamp/bit/waiting and
    declares a stall after two quiet unparked scans.  The inline check
    asserts a stall is never declared while any parked indication or an
    in-flight wake token remains.  [`No_waiting_flag] classifies parked
    by the mask bit alone — the checker exhibits the false stall inside
    the wake window that the waiting flag closes. *)

val spillover_spec : ?variant:[ `Good | `No_final_sweep ] -> spec
(** Cross-pool spill-over handoff: a [spawn_unit_on] producer pushes a
    routed root into a target pool's real [Inject_queue] then wakes that
    pool's registry, racing the pool's home worker (a pop, then
    [Shell.park_round] whose sweep pops again) and a foreign spill thief
    popping the same queue.  Invariant: the root executes exactly once
    and is never stranded with the home worker parked.
    [`No_final_sweep] parks with no sweep — the checker exhibits the
    stranded routed root (lost task). *)

val inject_queue_spec :
  ?variant:[ `Good | `No_head_cas ] -> thief_pops:int -> spec
(** The shipped routed queue: two producers push two items each while
    the home consumer pops twice and a spill thief [thief_pops] times.  Invariant:
    every item is popped exactly once or still queued, never a cleared
    slot, and each producer's items come out in push order.
    [`No_head_cas] runs the dune-generated copy whose pop moves the
    head with a plain write: two pops take one node. *)
