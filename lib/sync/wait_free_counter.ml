(** The wait-free Nowa strand counter (Section IV of the paper).

    [N_r] is decomposed into α (strands actually forked — continuations
    stolen and resumed) and ω (strands joined).  The atomic sync-condition
    cell holds [N_r' = Imax − ω] during the first phase: it is initialised
    to [Imax = max_int], every joining strand decrements it, and because
    [Imax] is astronomically large no joiner can ever observe a
    non-positive value before the explicit sync — the hazardous race of
    Figure 6 becomes benign and no operation ever takes a lock or loops.

    α is a plain (non-atomic) field: by Invariant II it is only ever
    written by the main path, which is a single control flow even though
    different workers may execute it over time (each hand-over happens
    through a steal-resume, which synchronises).

    At the explicit sync point the main path restores the true value
    [N_r = N_r' − (Imax − α)] (Equation 5) with a single
    [fetch_and_add (α − Imax)].  Whoever observes the counter at 0 — the
    syncing strand itself via the restore, or the last joining child via
    its decrement — owns the continuation stored in the frame.  Every
    operation is a constant number of atomic instructions: wait-free. *)

type t = {
  mutable alpha : int;  (* main-path only; Invariant II *)
  counter : int Atomic.t;  (* N_r' in phase one, N_r in phase two *)
}

let name = "wait-free"
let i_max = max_int

let create () = { alpha = 0; counter = Nowa_util.Padding.atomic i_max }

let note_steal _ = ()

(* The Sync_metrics observations below are steal-proportional: each of
   these operations runs at most once per stolen continuation (plus one
   restore per forked sync), never on the spawn fast path.  The retry
   histogram always records 0 — each operation is exactly one RMW — which
   is the point: scraped side by side with the lock counter's spin
   histogram it shows the wait-free fast path staying flat under
   contention (paper Figures 6–8). *)
let note_resume t =
  t.alpha <- t.alpha + 1;
  Nowa_obs.Counter.incr Sync_metrics.wfc_resumes;
  Nowa_obs.Histogram.observe Sync_metrics.wfc_rmw_retries 0

let child_joined t =
  Nowa_obs.Counter.incr Sync_metrics.wfc_joins;
  Nowa_obs.Histogram.observe Sync_metrics.wfc_rmw_retries 0;
  Atomic.fetch_and_add t.counter (-1) = 1

let reach_sync t =
  Nowa_obs.Counter.incr Sync_metrics.wfc_syncs;
  Nowa_obs.Histogram.observe Sync_metrics.wfc_rmw_retries 0;
  let delta = t.alpha - i_max in
  Atomic.fetch_and_add t.counter delta + delta = 0

let forked t = t.alpha > 0

let reset t =
  t.alpha <- 0;
  Atomic.set t.counter i_max

(* Phase one: the cell holds Imax − ω, so α − (Imax − cell) is α − ω. *)
let pending_hint t = Int.max 0 (t.alpha - (i_max - Atomic.get t.counter))

let active t =
  let c = Atomic.get t.counter in
  if c > i_max / 2 then i_max - c (* phase one: ω so far; N_r = α − ω *)
  else c
