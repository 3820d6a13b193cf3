(** Coordination-cost metrics for the join counters (paper Section IV /
    Figures 6–8): the wait-free α/ω counter completes every operation in
    a bounded number of RMWs, while the lock-based baseline spins.  Both
    are exported on {!Nowa_obs.Registry.default} so a live scrape shows
    the contrast directly:

    - [nowa_sync_wfc_rmw_retries]: retries per α/ω operation.  By
      construction this histogram only ever observes 0 — the fast path is
      the only path — and a non-zero bucket would flag a regression that
      re-introduced a retry loop.
    - [nowa_sync_frame_lock_spins]: spin-relax rounds per {e contended}
      frame-lock acquisition (uncontended acquisitions are not observed,
      keeping the fast path untouched).  The stack pool's global lock
      records into its own [nowa_stacks_lock_spins]
      (lib/runtime/stack_pool.ml).

    All observations are steal-proportional: α/ω only move when a
    continuation is actually stolen, and lock spins only when a frame
    lock is contended. *)

let wfc_resumes =
  Nowa_obs.Registry.counter "nowa_sync_wfc_resumes_total"
    ~help:"Wait-free counter alpha increments (stolen continuations resumed)."

let wfc_joins =
  Nowa_obs.Registry.counter "nowa_sync_wfc_joins_total"
    ~help:"Wait-free counter omega decrements (stolen children joined)."

let wfc_syncs =
  Nowa_obs.Registry.counter "nowa_sync_wfc_syncs_total"
    ~help:"Wait-free counter Eq. 5 restores at explicit sync points."

let wfc_rmw_retries =
  Nowa_obs.Registry.histogram "nowa_sync_wfc_rmw_retries"
    ~help:
      "RMW retries per wait-free alpha/omega operation (0 by construction)."

let frame_lock_spins =
  Nowa_obs.Registry.histogram "nowa_sync_frame_lock_spins"
    ~help:
      "Spin-relax rounds per contended frame-lock acquisition (lock-based \
       join counter)."
