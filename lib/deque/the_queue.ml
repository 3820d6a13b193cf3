(** The Cilk-5 THE (Tail, Head, Exception) work-stealing queue.

    Thieves always acquire the queue lock.  The owner's [pop_bottom]
    optimistically decrements the tail without locking and only falls back
    to the lock when it conflicts with a concurrent steal — the lock
    elision described in Section II-D.  Because steals hold the lock,
    [steal ~on_commit] runs its callback inside the critical section; this
    is exactly where Fibril increments its strand counter (Listing 2 of the
    paper), making the steal and the counter update atomic with respect to
    the owner's conflicting [pop_bottom].

    The buffer grows under the lock before it fills, so unlike the historical
    bounded implementation we never refuse a push; growth is rare and
    owner-initiated. *)

module Make (E : Ws_deque_intf.ELT) : Ws_deque_intf.S with type elt = E.t =
struct
  type elt = E.t

  type t = {
    head : int Atomic.t;            (* next steal index, monotonic *)
    tail : int Atomic.t;            (* next push index, monotonic *)
    lock : Mutex.t;
    mutable mask : int;
    mutable slots : elt array;
  }

  let name = "the"

  let create ?(capacity = 64) () =
    let rec pow2 n = if n >= capacity then n else pow2 (n * 2) in
    let capacity = pow2 8 in
    {
      head = Nowa_util.Padding.atomic 0;
      tail = Nowa_util.Padding.atomic 0;
      lock = Mutex.create ();
      mask = capacity - 1;
      slots = Array.make capacity E.dummy;
    }

  (* Owner only, called with [lock] held. *)
  let grow_locked t =
    let head = Atomic.get t.head and tail = Atomic.get t.tail in
    let slots = Array.make ((t.mask + 1) * 2) E.dummy in
    let mask = Array.length slots - 1 in
    for i = head to tail - 1 do
      slots.(i land mask) <- t.slots.(i land t.mask)
    done;
    t.slots <- slots;
    t.mask <- mask

  (* Grow while one slot is still free.  [head] is read without the
     lock, and a thief inside [steal] has already advanced it past a
     slot it has not yet read.  Thieves are serialised by the lock, so
     at most one such claimed-but-unread slot sits below the visible
     [head]; filling the ring to the last slot would wrap onto it and
     the thief would return the owner's newer element, or a blank. *)
  let push_bottom t v =
    let tail = Atomic.get t.tail in
    let head = Atomic.get t.head in
    if tail - head >= t.mask then begin
      Mutex.lock t.lock;
      grow_locked t;
      Mutex.unlock t.lock
    end;
    t.slots.(tail land t.mask) <- v;
    Atomic.set t.tail (tail + 1)

  let pop t =
    let tail = Atomic.get t.tail - 1 in
    Atomic.set t.tail tail;
    let head = Atomic.get t.head in
    if head > tail then begin
      (* Possible conflict with a thief: arbitrate under the lock. *)
      Atomic.set t.tail (tail + 1);
      Mutex.lock t.lock;
      let tail = Atomic.get t.tail - 1 in
      Atomic.set t.tail tail;
      let head = Atomic.get t.head in
      if head > tail then begin
        Atomic.set t.tail head;
        Mutex.unlock t.lock;
        E.dummy
      end
      else begin
        let v = t.slots.(tail land t.mask) in
        t.slots.(tail land t.mask) <- E.dummy;
        Mutex.unlock t.lock;
        v
      end
    end
    else begin
      let v = t.slots.(tail land t.mask) in
      t.slots.(tail land t.mask) <- E.dummy;
      v
    end

  let pop_bottom t =
    let v = pop t in
    if v == E.dummy then None else Some v

  let steal t ~on_commit =
    Mutex.lock t.lock;
    let head = Atomic.get t.head in
    Atomic.set t.head (head + 1);
    let tail = Atomic.get t.tail in
    if head + 1 > tail then begin
      Atomic.set t.head head;
      Mutex.unlock t.lock;
      None
    end
    else begin
      let v = t.slots.(head land t.mask) in
      on_commit v;
      Mutex.unlock t.lock;
      Some v
    end

  (* Batched grab under one lock acquisition: repeat the THE steal
     protocol while the lock is held, so the per-steal lock cost is paid
     once for the whole batch.  Capped at half the visible elements so
     the owner keeps its newer half. *)
  let steal_batch t ~max:max_take ~on_commit =
    Mutex.lock t.lock;
    let avail = Int.max 0 (Atomic.get t.tail - Atomic.get t.head) in
    let take = Int.min max_take ((avail + 1) / 2) in
    let out = ref [] in
    (try
       for _ = 1 to take do
         let head = Atomic.get t.head in
         Atomic.set t.head (head + 1);
         let tail = Atomic.get t.tail in
         if head + 1 > tail then begin
           Atomic.set t.head head;
           raise Exit
         end
         else begin
           let v = t.slots.(head land t.mask) in
           on_commit v;
           out := v :: !out
         end
       done
     with Exit -> ());
    Mutex.unlock t.lock;
    List.rev !out

  let size t =
    let tail = Atomic.get t.tail and head = Atomic.get t.head in
    Int.max 0 (tail - head)
end
