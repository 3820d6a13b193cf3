(** Lock-based strand counter, modelled on Fibril (paper Listing 2).

    A thief increments the count under the frame lock while it still holds
    the victim's deque lock (the engine calls {!note_steal} from the
    deque's steal-commit hook), which chains the two critical sections
    exactly as in Fibril's [random_steal] and closes the worker/thief race
    of Figure 6 the lock-based way.

    Count protocol: 0 means "no strand ever forked, or sync fully
    complete".  The first steal sets the count to 2 — one for the stolen
    strand, one for the main path, which also decrements at its explicit
    sync.  Every later steal adds 1; every join subtracts 1; whoever
    reaches 0 owns the frame's suspended continuation. *)

type t = { lock : Spinlock.t; mutable count : int }

let name = "lock-based"

(* Frame locks get their own wait histogram so scrapes can tell frame
   contention (the Figure 6 race resolved the lock-based way) apart from
   infrastructure locks like the stack pool's. *)
let create () =
  { lock = Spinlock.create ~spins:Sync_metrics.frame_lock_spins (); count = 0 }

let note_steal t =
  Spinlock.acquire t.lock;
  if t.count = 0 then t.count <- 2 else t.count <- t.count + 1;
  Spinlock.release t.lock

let note_resume _ = ()

let child_joined t =
  Spinlock.acquire t.lock;
  t.count <- t.count - 1;
  let zero = t.count = 0 in
  Spinlock.release t.lock;
  zero

let reach_sync t =
  Spinlock.acquire t.lock;
  let proceed =
    if t.count = 0 then true
    else begin
      t.count <- t.count - 1;
      t.count = 0
    end
  in
  Spinlock.release t.lock;
  proceed

(* Safe without the lock: on the main path the count is at least 1 from the
   moment a steal commits (which happens-before the stolen continuation
   resumes) until the main path itself decrements at [reach_sync]. *)
let forked t = t.count > 0

let reset _ = ()

(* On the main path before its sync the count is 1 + outstanding strands. *)
let pending_hint t = Int.max 0 (t.count - 1)

let active t = t.count
