(** Hash-sharded in-memory KV store with flat combining and ordered
    multi-key claims.

    The store is split into [shards], each a set of hash buckets plus a
    lock-free mailbox and a combining flag.  A shard's tables are only
    ever touched by whoever holds its flag, so they need no per-key
    locks.  A point op on an idle shard (empty mailbox, flag free)
    claims the flag and applies itself; otherwise it is pushed onto the
    mailbox, and whoever holds or next takes the flag drains the
    mailbox and applies the batch (flat combining).  A multi-key op
    claims the flag of every shard its keys live on, in ascending shard
    order, waiting behind a flag another caller holds, then reads or
    writes the tables in place.  Every holder releases a shard the same
    way: drain the mailbox, release the flag, re-check the mailbox.  The
    mcheck battery checks this protocol on this file.

    Deadlock freedom is by ordered acquisition: a point op or a combiner
    never waits while it holds a flag, and a multi-key op waits only for
    a flag above every flag it holds, so the wait-for relation has no
    cycle.

    [exec] is safe to call from any thread or runtime task.  A request
    in a mailbox waits for its outcome: the flag's holder drains it, or
    the holder's release re-check hands it a combiner. *)

type t

type key = int
type value = int

type op =
  | Get of key
  | Put of key * value
  | Add of key * value  (** read-modify-write: add to current, return new *)
  | Multi_get of key array  (** atomic cross-shard snapshot read *)
  | Multi_put of (key * value) array  (** atomic cross-shard multi-write *)

type outcome =
  | Pending  (** internal: response not yet produced *)
  | Miss
  | Hit of value
  | Many of value option array  (** [Multi_get] results, in key order *)
  | Ack
  | Dropped  (** admission control: shard mailbox over capacity *)

(** One applied read/write step, for linearizability checking: [seq] is
    drawn from a global counter at the linearization point (while the
    caller holds the bucket's shard flag), so replaying entries in
    [seq] order against a sequential reference must reproduce every
    [read] observation. *)
type log_entry = {
  seq : int;
  req_id : int;
  l_key : key;
  read : value option;  (** table state for [l_key] just before the step *)
  wrote : value option;  (** [Some v] if the step stored [v] *)
}

val create :
  ?shards:int ->
  ?buckets_per_shard:int ->
  ?queue_cap:int ->
  ?log:bool ->
  ?span:Nowa_trace.Span.t ->
  unit ->
  t
(** Defaults: 16 shards, 64 buckets each, queue cap 65536, no log.
    [queue_cap] bounds a shard's queued point requests: a request whose
    shard (for a multi-key op, its lowest footprint shard) has that many
    queued is rejected with [Dropped] (open-loop overload shedding).
    [log:true] records every applied step for offline linearizability
    checking — test-only, it serialises on a global counter.  [span]
    attaches a request-phase ledger: stations inside the store (submit,
    claim, a multi-key op's wait for a held flag, apply) mark the
    caller-allocated rid as the request moves; [Span.disabled] (the
    default) makes every mark a no-op. *)

val exec : ?rid:int -> t -> op -> outcome
(** Execute one operation to completion.  Never returns [Pending].
    Empty [Multi_get]/[Multi_put] complete immediately with
    [Many [||]] / [Ack].  [rid] is a span request id from
    [Span.alloc] — it becomes the request id; omit it (or pass [-1])
    for untracked traffic.  Without a [rid], an internal id (offset
    past the span capacity, so it never collides with one) is drawn
    from a store-wide counter only when something reads it: the store
    was created with [~log:true], or the calling domain's trace ring
    is on.  Otherwise the request's id is [-1].

    A single-key op whose shard is idle (empty mailbox, flag free)
    skips the mailbox: the caller claims the flag, applies its op, runs
    the drain, release and re-check loop every holder runs, and returns
    the outcome itself, building no request record.
    Otherwise it goes through the mailbox (so does every point op while
    a wedge is armed, {!inject_wedge}).  A multi-key op claims every
    shard it touches in ascending shard order, waiting with backoff
    behind a flag another caller holds, reads or writes the bucket
    tables in place, then runs that loop on each shard. *)

val shard_of_key : t -> key -> int
(** Home shard of a key (exposed for tests and placement experiments). *)

val shards : t -> int
val size : t -> int
(** Total number of live keys.  Quiescent use only. *)

val fold : (key -> value -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over all live bindings.  Quiescent use only. *)

val dropped : t -> int
(** Requests rejected by admission control so far. *)

val handoffs : t -> int
(** Claims so far at which a multi-key op waited for a footprint
    shard's flag that another caller held (one per shard waited for). *)

val claims : t -> shard:int -> int
(** Claims won on [shard]'s combining flag so far: one per combiner
    pass, one per idle point op, and one per multi-key op that touches
    the shard.  Racy while requests run; the convoy probe reads the
    same counter. *)

val log : t -> log_entry list
(** Applied-step log in global [seq] order ([] unless created with
    [~log:true]).  Quiescent use only. *)

(** {2 Watchdog integration} *)

val convoys :
  ?hold_ms:float -> ?min_depth:int -> t -> Nowa_runtime.Health.verdict list
(** Live-convoy probe for the health watchdog: one
    [Health.Convoy {shard; depth; held_ms}] per shard whose combining
    flag is held by the same claim that an earlier call saw held more
    than [hold_ms] (default 50) milliseconds ago, while at least
    [min_depth] (default 1) requests wait behind it.  Claims are
    counted, not timed, so [held_ms] is the time since the probe first
    saw the claim: a lower bound on the hold.  A claim is therefore
    reported one scan later than a timed claim would be.  The reads of
    the store are racy snapshots, but the probe keeps its own
    per-shard state, so call it from one thread at a time (the
    monitor's). *)

val inject_wedge : shard:int -> ms:int -> unit
(** Arm a one-shot fault: the next holder to run [shard]'s drain loop
    spins for [ms] milliseconds while holding the flag, manufacturing
    exactly the convoy that {!convoys} detects.  While a wedge is armed,
    every point request goes through its shard's mailbox (no idle-shard
    claim), so even a lone request waits behind the wedged claim; a
    multi-key op claims as always, and waits behind a wedged flag.
    Test/bench only. *)

val clear_wedge : unit -> unit
(** Disarm a pending {!inject_wedge}. *)
