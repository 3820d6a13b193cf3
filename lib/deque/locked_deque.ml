(** Fully mutex-synchronised deque: every operation takes the lock.

    This is the "every fully-synchronised queue could be used for
    work-stealing" strawman of Section II-A and the queue we give to the
    Cilk Plus-like preset, whose runtime the paper classifies as lock-based
    on both layers.  [steal]'s [on_commit] runs inside the critical
    section. *)

module Make (E : Ws_deque_intf.ELT) : Ws_deque_intf.S with type elt = E.t =
struct
  type elt = E.t

  type t = {
    lock : Mutex.t;
    mutable head : int;
    mutable tail : int;
    mutable mask : int;
    mutable slots : elt array;
  }

  let name = "locked"

  let create ?(capacity = 64) () =
    let rec pow2 n = if n >= capacity then n else pow2 (n * 2) in
    let capacity = pow2 8 in
    {
      lock = Mutex.create ();
      head = 0;
      tail = 0;
      mask = capacity - 1;
      slots = Array.make capacity E.dummy;
    }

  let grow_locked t =
    let slots = Array.make ((t.mask + 1) * 2) E.dummy in
    let mask = Array.length slots - 1 in
    for i = t.head to t.tail - 1 do
      slots.(i land mask) <- t.slots.(i land t.mask)
    done;
    t.slots <- slots;
    t.mask <- mask

  let push_bottom t v =
    Mutex.lock t.lock;
    if t.tail - t.head > t.mask then grow_locked t;
    t.slots.(t.tail land t.mask) <- v;
    t.tail <- t.tail + 1;
    Mutex.unlock t.lock

  let pop t =
    Mutex.lock t.lock;
    let r =
      if t.tail = t.head then E.dummy
      else begin
        t.tail <- t.tail - 1;
        let v = t.slots.(t.tail land t.mask) in
        t.slots.(t.tail land t.mask) <- E.dummy;
        v
      end
    in
    Mutex.unlock t.lock;
    r

  let pop_bottom t =
    let v = pop t in
    if v == E.dummy then None else Some v

  let steal t ~on_commit =
    Mutex.lock t.lock;
    let r =
      if t.tail = t.head then None
      else begin
        let v = t.slots.(t.head land t.mask) in
        t.slots.(t.head land t.mask) <- E.dummy;
        t.head <- t.head + 1;
        on_commit v;
        Some v
      end
    in
    Mutex.unlock t.lock;
    r

  (* steal_half under a single lock acquisition: take up to [max] elements
     but never more than half the deque (rounded up), leaving the owner the
     newer half to keep working on locally. *)
  let steal_batch t ~max:max_take ~on_commit =
    Mutex.lock t.lock;
    let avail = t.tail - t.head in
    let take = Int.min max_take ((avail + 1) / 2) in
    let r =
      if take <= 0 then []
      else begin
        let out = ref [] in
        for _ = 1 to take do
          let v = t.slots.(t.head land t.mask) in
          t.slots.(t.head land t.mask) <- E.dummy;
          t.head <- t.head + 1;
          on_commit v;
          out := v :: !out
        done;
        List.rev !out
      end
    in
    Mutex.unlock t.lock;
    r

  let size t = Int.max 0 (t.tail - t.head)
end
