(** Test-and-test-and-set spinlock with truncated exponential backoff.

    Used by the lock-based join counters (the Fibril/Cilk Plus baselines)
    so that the locking cost the paper attributes to those runtimes stays
    in user space and visible, instead of disappearing into futex waits.

    Contended acquisitions record their spin-relax round count into a
    histogram ([spins], defaulting to
    {!Sync_metrics.spinlock_spins}); the uncontended fast path — a
    single CAS — is never observed. *)

type t

val create : ?spins:Nowa_obs.Histogram.t -> unit -> t
val acquire : t -> unit
val release : t -> unit
