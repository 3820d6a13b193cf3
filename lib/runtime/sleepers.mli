(** Wait-free sleeper registry: the spawn-side half of worker parking.

    One atomic word packs {b who is asleep} (a bitmask, one bit per
    worker, low {!mask_bits} bits) with a {b wake epoch} (the remaining
    high bits, bumped on every successful wake so each wake transition is
    a unique word value).  The contract that keeps the spawn/join hot
    path wait-free:

    - [wake_one]'s fast path is a {e single} [Atomic.get].  When no
      worker is parked — the common case on a saturated machine — the
      spawner pays one load and nothing else: no CAS, no lock, no
      syscall.  Only when the mask is non-empty does it CAS a bit out
      and signal that worker's condition variable.
    - parking itself (announce → re-check → block) is confined to the
      idle path, where the worker by definition has nothing better to do;
      a CAS loop there costs no strand any progress.

    No lost wake-ups: a worker [announce]s its bit {e before} its final
    sweep of all deques, and a spawner pushes its task {e before} reading
    the word.  OCaml atomics are sequentially consistent, so either the
    spawner's load sees the bit (and wakes the worker), or the announce
    ordered after that load — in which case the push ordered before the
    announce, hence before the sweep, and the sweep finds the task (or a
    racing thief already took it, in which case that thief is awake and
    holding work).  Either way a pushed task is never stranded with every
    worker asleep.

    Wake/cancel races are absorbed by a per-worker counting semaphore
    (mutex + condvar + token count): a wake delivered to a worker that
    cancelled in time leaves a token that merely makes the {e next} park
    return immediately — a spurious extra steal round, never a hang. *)

type t

val mask_bits : int
(** Number of workers the bitmask can register (48).  {!create} rejects
    wider registries loudly, so every constructed registry can park all
    of its workers — a >48-worker configuration must be split into
    pools of at most this size. *)

val create : workers:int -> t
(** Build a registry for [workers] workers.  Raises [Invalid_argument]
    if [workers > mask_bits]: the old behaviour silently degraded
    oversized workers' [Park_after] to spin-forever with skewed wake
    accounting (ISSUE 10 bugfix). *)

val announce : t -> worker:int -> bool
(** Raise this worker's {!waiting} flag, then set its sleeper bit.  Must
    be called {e before} the final emptiness re-check that precedes
    {!park}.  Always returns [true]; raises [Invalid_argument] on an id
    outside the registry (impossible from the engines — {!create}
    already validated the pool size). *)

val cancel : t -> worker:int -> bool
(** Clear this worker's bit after deciding not to park (work appeared,
    or shutdown), and lower its {!waiting} flag.  Returns [false] if a
    waker already claimed the bit — a token is then in flight and the
    next {!park} will consume it immediately; callers count that as a
    lost-wakeup retry. *)

val park : t -> worker:int -> unit
(** Block until a token is available for this worker, consume it, and
    lower the {!waiting} flag raised by {!announce}.  Callers must have
    [announce]d and re-checked for work first. *)

val wake_one : t -> bool
(** Wake one parked worker if any.  Fast path: one atomic load returning
    [false] when nobody sleeps.  Returns [true] if a sleeper bit was
    claimed and its owner signalled.  The victim scan starts at the
    current wake epoch modulo {!mask_bits} and wraps, so repeated wakes
    rotate round-robin over the parked workers rather than always
    reviving the lowest-indexed one (which would leave high-indexed
    workers — and their stolen-into deques — cold through a burst). *)

val wake_all : t -> unit
(** Claim every sleeper bit and signal all the owners.  Used at
    shutdown so no worker stays parked past [finished]. *)

val sleepers : t -> int
(** Current number of announced sleepers (popcount of the mask). *)

val epoch : t -> int
(** Wake epoch: total successful wake transitions so far (mod 2^15). *)

(** {2 Watchdog sampling}

    Read-only accessors for the health monitor, which samples sleeper
    state from its own thread without locks.  A worker counts as
    {e parked-or-parking} when its mask bit is set {b or} its waiting
    flag is up; the wake stamp distinguishes "woken but not yet
    rescheduled" from "no motion at all" across a sampling window. *)

val announced : t -> worker:int -> bool
(** This worker's sleeper bit is currently set. *)

val waiting : t -> worker:int -> bool
(** This worker is inside the park protocol: the flag rises in
    {!announce} before the bit is published and falls only in {!cancel}
    or after {!park} consumed a token, so it stays up across the window
    where a waker has claimed the bit but its token is still in flight
    and the mask bit alone would misread the worker as running. *)

val wake_stamp : t -> worker:int -> int
(** Count of this worker's bit-ownership transitions (wakes by others,
    cancels by itself).  A change between two samples is progress even
    when no heartbeat landed in between. *)
