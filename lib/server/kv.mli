(** Hash-sharded in-memory KV store with message-based bucket handoff.

    The store is split into [shards], each a set of hash buckets plus a
    lock-free mailbox.  A shard's state is only ever touched by the
    current {e combiner}: whoever CASes the shard's combining flag
    drains the mailbox and applies the batch, so bucket tables need no
    per-key locks (flat combining).  Cross-shard multi-key operations
    never lock across shards; instead, bucket {e ownership} moves: the
    transaction's home shard borrows each foreign bucket with a
    [Borrow] message, the owner detaches the bucket table and ships it
    back in a [Grant], and after the one-shot atomic apply the table
    returns home via [Return] (the IronFleet sharded-hash-table
    scheme).  Requests that arrive for a bucket currently on loan are
    deferred and re-applied at return time, so no operation is lost or
    applied twice — the mcheck battery checks exactly this protocol.

    Deadlock freedom: a transaction acquires its buckets strictly
    one-at-a-time in the global (shard, bucket) order, so every waiter
    holds only buckets smaller than the one it waits for and the
    wait-for relation has no cycle.

    [exec] is safe to call from any thread or runtime task and contains
    no blocking synchronisation: waiting requests poke the combiner
    loop themselves (helping), so a stalled worker cannot wedge the
    shard. *)

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
    combiner holds the bucket exclusively), so replaying entries in
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
    [queue_cap] bounds a shard's pending-message count — mailbox plus
    messages deferred behind a bucket loan; requests beyond it are
    rejected with [Dropped] (open-loop overload shedding).  [log:true]
    records every applied step for offline linearizability checking —
    test-only, it serialises on a global counter.  [span] attaches a
    request-phase ledger: stations inside the store (submit, combiner
    claim, loan deferral, handoff, apply) mark the caller-allocated rid
    as the request moves; [Span.disabled] (the default) makes every
    mark a no-op. *)

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
    skips the mailbox: the caller claims the flag, applies its op or
    defers it behind a loaned bucket, then runs the same drain,
    release and re-check loop as any combiner.  Every other request
    goes through the shard's mailbox. *)

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
(** Bucket grants performed so far (cross-shard transaction traffic). *)

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
    [min_depth] (default 1) messages wait behind it.  Claims are
    counted, not timed, so [held_ms] is the time since the probe first
    saw the claim: a lower bound on the hold.  A claim is therefore
    reported one scan later than a timed claim would be.  The reads of
    the store are racy snapshots, but the probe keeps its own
    per-shard state, so call it from one thread at a time (the
    monitor's). *)

val inject_wedge : shard:int -> ms:int -> unit
(** Arm a one-shot fault: the next combiner to claim [shard] spins for
    [ms] milliseconds while holding the flag, manufacturing exactly the
    convoy that {!convoys} detects.  While a wedge is armed, every
    request goes through its shard's mailbox (no idle-shard claim), so
    even a lone request waits behind the wedged claim.  Test/bench
    only. *)

val clear_wedge : unit -> unit
(** Disarm a pending {!inject_wedge}. *)
