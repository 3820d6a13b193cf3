(** The Arora-Blumofe-Plaxton non-blocking work-stealing deque (SPAA '98).

    The top index and its ABA-prevention tag are packed into one OCaml
    integer ([age]) so it can be updated with a single compare-and-swap.
    As in the original algorithm the underlying array is {e not} used as a
    ring buffer: [push_bottom] and [steal] only ever increment indices, so
    space freed at the top is unusable until the deque empties and
    [pop_bottom] resets both indices.  This is the effective-capacity
    pathology discussed in Section II-D of the paper; [push_bottom] raises
    {!Ws_deque_intf.Full} when it bites, and the test-suite demonstrates
    it.  Kept primarily as a baseline and for the deque benchmarks. *)

module Make (E : Ws_deque_intf.ELT) : Ws_deque_intf.S with type elt = E.t =
struct
  type elt = E.t

  type t = {
    age : int Atomic.t;       (* tag in the high bits, top index in the low *)
    bot : int Atomic.t;
    slots : elt array;
  }

  let name = "abp"

  let index_bits = 31
  let index_mask = (1 lsl index_bits) - 1
  let pack ~tag ~top = (tag lsl index_bits) lor top
  let unpack age = (age lsr index_bits, age land index_mask)

  let create ?(capacity = 8192) () =
    {
      age = Nowa_util.Padding.atomic (pack ~tag:0 ~top:0);
      bot = Nowa_util.Padding.atomic 0;
      slots = Array.make capacity E.dummy;
    }

  let push_bottom t v =
    let b = Atomic.get t.bot in
    if b >= Array.length t.slots then raise Ws_deque_intf.Full;
    t.slots.(b) <- v;
    Atomic.set t.bot (b + 1)

  let pop t =
    let b = Atomic.get t.bot in
    if b = 0 then E.dummy
    else begin
      let b = b - 1 in
      Atomic.set t.bot b;
      let v = t.slots.(b) in
      let old_age = Atomic.get t.age in
      let tag, top = unpack old_age in
      if b > top then begin
        t.slots.(b) <- E.dummy;
        v
      end
      else begin
        (* Deque is now empty or this is the last element: reset indices,
           bumping the tag so in-flight thieves cannot commit stale tops. *)
        Atomic.set t.bot 0;
        let new_age = pack ~tag:(tag + 1) ~top:0 in
        if b = top && Atomic.compare_and_set t.age old_age new_age then v
        else begin
          Atomic.set t.age new_age;
          E.dummy
        end
      end
    end

  let pop_bottom t =
    let v = pop t in
    if v == E.dummy then None else Some v

  let steal t ~on_commit =
    let old_age = Atomic.get t.age in
    let tag, top = unpack old_age in
    let b = Atomic.get t.bot in
    if b <= top then None
    else begin
      let v = t.slots.(top) in
      let new_age = pack ~tag ~top:(top + 1) in
      if Atomic.compare_and_set t.age old_age new_age then begin
        on_commit v;
        Some v
      end
      else None
    end

  (* The age word admits only single-element CAS transfers, so a batch is
     [max] independent steals ending at the first empty/raced attempt. *)
  let steal_batch t ~max:max_take ~on_commit =
    let rec go n acc =
      if n >= max_take then List.rev acc
      else
        match steal t ~on_commit with
        | None -> List.rev acc
        | Some v -> go (n + 1) (v :: acc)
    in
    go 0 []

  let size t =
    let b = Atomic.get t.bot in
    let _, top = unpack (Atomic.get t.age) in
    Int.max 0 (b - top)
end
