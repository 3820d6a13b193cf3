let mask_bits = 48

let mask_all = (1 lsl mask_bits) - 1
let epoch_one = 1 lsl mask_bits

(* Per-worker counting semaphore.  [tokens] only moves under [mu]; it can
   exceed 1 transiently when a wake races a cancel, which just makes the
   next park return immediately.

   [waiting] exists for the health watchdog, which samples sleeper state
   from outside without taking [mu]: it is 1 from {!announce} until the
   worker leaves the park protocol — raised before the mask bit is
   published, lowered by {!cancel} (either outcome) or by {!park} once
   the token is consumed.  It covers the window where a waker has
   claimed the bit but its token is still in flight, while the worker is
   still sweeping, about to block or blocked: without it a sampler would
   read "unparked, no progress" and misflag a healthy parked worker.
   Once it falls, the worker's next round bumps one of its counters. *)
type slot = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable tokens : int;
  waiting : int Atomic.t;
}

type t = { word : int Atomic.t; slots : slot array }

let create ~workers =
  (* Loud validation at pool construction (ISSUE 10): a registry wider
     than the bitmask used to degrade [Park_after] into spin-forever for
     workers >= mask_bits, with skewed wake accounting.  Per-pool
     registries keep practical pool sizes well under the limit, so an
     oversized request is a configuration bug, not a mode. *)
  if workers > mask_bits then
    invalid_arg
      (Printf.sprintf
         "Sleepers.create: %d workers exceed the registry's %d-bit mask; \
          split the configuration into pools of at most %d workers"
         workers mask_bits mask_bits);
  {
    (* Every spawn loads this word (the wake-one fast path); isolate it
       so sleeper announcements don't share a line with neighbours. *)
    word = Nowa_util.Padding.atomic 0;
    slots =
      Array.init workers (fun _ ->
          {
            mu = Mutex.create ();
            cv = Condition.create ();
            tokens = 0;
            waiting = Nowa_util.Padding.atomic 0;
          });
  }

let announce t ~worker =
  (* [create] rejects oversized registries, so an out-of-range id here
     is a caller bug — fail loudly instead of silently refusing to park
     (the old behaviour degraded Park_after to spin-forever). *)
  if worker < 0 || worker >= Array.length t.slots then
    invalid_arg
      (Printf.sprintf "Sleepers.announce: worker %d outside registry of %d"
         worker (Array.length t.slots));
  let bit = 1 lsl worker in
  Atomic.set t.slots.(worker).waiting 1;
  let rec go () =
    let cur = Atomic.get t.word in
    if Atomic.compare_and_set t.word cur (cur lor bit) then ()
    else go ()
  in
  go ();
  true

let cancel t ~worker =
  let bit = 1 lsl worker in
  let slot = t.slots.(worker) in
  let rec go () =
    let cur = Atomic.get t.word in
    if cur land bit = 0 then false (* a waker claimed us first *)
    else if Atomic.compare_and_set t.word cur (cur lxor bit) then true
    else go ()
  in
  let cancelled = go () in
  Atomic.set slot.waiting 0;
  cancelled

let post slot =
  Mutex.lock slot.mu;
  slot.tokens <- slot.tokens + 1;
  Condition.signal slot.cv;
  Mutex.unlock slot.mu

let park t ~worker =
  let slot = t.slots.(worker) in
  Mutex.lock slot.mu;
  while slot.tokens = 0 do
    Condition.wait slot.cv slot.mu
  done;
  slot.tokens <- slot.tokens - 1;
  Mutex.unlock slot.mu;
  Atomic.set slot.waiting 0

(* Lowest set bit index in constant time via binary search on the
   isolated bit (the de Bruijn multiply is unsound on OCaml's 63-bit
   native ints, where the 64-bit constant wraps).  The mask is never 0
   when called; only the low [mask_bits] bits are ever set. *)
let ctz m =
  let b = m land -m in
  let i = 0 in
  let i = if b land 0xFFFF_FFFF <> 0 then i else i + 32 in
  let i = if b land (0xFFFF lsl i) <> 0 then i else i + 16 in
  let i = if b land (0xFF lsl i) <> 0 then i else i + 8 in
  let i = if b land (0xF lsl i) <> 0 then i else i + 4 in
  let i = if b land (0x3 lsl i) <> 0 then i else i + 2 in
  if b land (0x1 lsl i) <> 0 then i else i + 1

(* Claim one sleeper's bit and post its token; [false] once the mask is
   empty.  Top-level, so a wake with a sleeper present allocates no
   closure on the pusher's domain. *)
let rec claim_one t =
  let cur = Atomic.get t.word in
  let mask = cur land mask_all in
  if mask = 0 then false
  else begin
    (* Rotate the scan start by the wake epoch so successive wakes
       walk the sleepers round-robin instead of hammering the
       lowest-indexed worker (which otherwise absorbs every
       wake/park cycle while high-indexed workers sleep through
       bursts). *)
    let r = ((cur lsr mask_bits) land 0x7fff) mod mask_bits in
    let rot = (mask lsr r) lor ((mask lsl (mask_bits - r)) land mask_all) in
    let w = (ctz rot + r) mod mask_bits in
    let next = (cur lxor (1 lsl w)) + epoch_one in
    if Atomic.compare_and_set t.word cur next then begin
      post t.slots.(w);
      true
    end
    else claim_one t
  end

let wake_one t =
  (* Single load on the fast path: the spawn-side cost when nobody
     sleeps.  Everything below only runs with a sleeper present. *)
  if Atomic.get t.word land mask_all = 0 then false else claim_one t

let any_asleep t = Atomic.get t.word land mask_all <> 0

let wake_all t =
  let rec go () =
    let cur = Atomic.get t.word in
    let mask = cur land mask_all in
    if mask = 0 then ()
    else if Atomic.compare_and_set t.word cur (cur - mask + epoch_one) then begin
      let rec signal m =
        if m <> 0 then begin
          let w = ctz m in
          post t.slots.(w);
          signal (m lxor (1 lsl w))
        end
      in
      signal mask
    end
    else go ()
  in
  go ()

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go m 0

let sleepers t = popcount (Atomic.get t.word land mask_all)
let epoch t = (Atomic.get t.word lsr mask_bits) land 0x7fff

(* --- watchdog sampling accessors (read-only, no locks) ------------------- *)

let announced t ~worker =
  worker < mask_bits && Atomic.get t.word land (1 lsl worker) <> 0

let waiting t ~worker =
  worker < Array.length t.slots && Atomic.get t.slots.(worker).waiting = 1
