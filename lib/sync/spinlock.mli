(** Test-and-test-and-set spinlock with truncated exponential backoff.

    Used by the lock-based join counters (the Fibril/Cilk Plus baselines)
    so that the locking cost the paper attributes to those runtimes stays
    in user space and visible, instead of disappearing into futex waits.

    Contended acquisitions record their spin-relax round count into the
    caller's histogram ([spins]: {!Sync_metrics.frame_lock_spins} for the
    frame locks, [nowa_stacks_lock_spins] for the stack pool's global
    lock); the uncontended fast path — a single CAS — is never
    observed. *)

type t

val create : spins:Nowa_obs.Histogram.t -> unit -> t
val acquire : t -> unit
val release : t -> unit
