(** Chase-Lev dynamic circular work-stealing deque (the paper's "CL
    queue").

    The algorithm follows Chase & Lev (SPAA '05) as corrected for weak
    memory models by Lê et al. (PPoPP '13).  OCaml's [Atomic] operations
    are sequentially consistent, which is strictly stronger than the
    orderings the corrected algorithm requires, so the implementation is
    memory-model-safe by construction; the cost of the stronger fences is
    uniform across all runtimes compared by the benchmarks.

    [top] and [bottom] are monotonically increasing 63-bit counters that
    double as ring-buffer indices (index = counter mod capacity), so the
    ABP effective-capacity pathology does not exist here.  The buffer grows
    when full; growth is performed by the owner and published with an
    atomic store so that concurrent thieves always observe a buffer
    containing the element at their candidate index. *)

module Make (E : Ws_deque_intf.ELT) : Ws_deque_intf.S with type elt = E.t =
struct
  type elt = E.t

  type buffer = { mask : int; slots : elt array }

  type t = {
    top : int Atomic.t;
    bottom : int Atomic.t;
    buf : buffer Atomic.t;
  }

  let name = "cl"

  let make_buffer capacity =
    assert (capacity > 0 && capacity land (capacity - 1) = 0);
    { mask = capacity - 1; slots = Array.make capacity E.dummy }

  let create ?(capacity = 64) () =
    let rec pow2 n = if n >= capacity then n else pow2 (n * 2) in
    let capacity = pow2 8 in
    {
      top = Nowa_util.Padding.atomic 0;
      bottom = Nowa_util.Padding.atomic 0;
      buf = Nowa_util.Padding.atomic (make_buffer capacity);
    }

  let slot_get buf i = buf.slots.(i land buf.mask)
  let slot_set buf i v = buf.slots.(i land buf.mask) <- v

  (* Owner only: allocate a buffer twice the size and copy the live range.
     Thieves racing with the copy still hold the old buffer, whose live
     slots are never overwritten (the owner only pushes after publishing
     the new buffer). *)
  let grow t top bottom =
    let old_buf = Atomic.get t.buf in
    let nbuf = make_buffer ((old_buf.mask + 1) * 2) in
    for i = top to bottom - 1 do
      slot_set nbuf i (slot_get old_buf i)
    done;
    Atomic.set t.buf nbuf;
    nbuf

  let push_bottom t v =
    let b = Atomic.get t.bottom in
    let tp = Atomic.get t.top in
    let buf = Atomic.get t.buf in
    let buf = if b - tp > buf.mask then grow t tp b else buf in
    slot_set buf b v;
    Atomic.set t.bottom (b + 1)

  let pop t =
    let b = Atomic.get t.bottom - 1 in
    Atomic.set t.bottom b;
    (* The seq_cst store above acts as the store-load fence the algorithm
       needs between publishing the reservation and reading [top]. *)
    let tp = Atomic.get t.top in
    let size = b - tp in
    if size < 0 then begin
      Atomic.set t.bottom tp;
      E.dummy
    end
    else
      let buf = Atomic.get t.buf in
      let v = slot_get buf b in
      if size > 0 then begin
        slot_set buf b E.dummy;
        v
      end
      else begin
        (* Single element left: race against thieves for it. *)
        let won = Atomic.compare_and_set t.top tp (tp + 1) in
        Atomic.set t.bottom (tp + 1);
        if won then begin
          slot_set buf b E.dummy;
          v
        end
        else E.dummy
      end

  let pop_bottom t =
    let v = pop t in
    if v == E.dummy then None else Some v

  let steal t ~on_commit =
    let tp = Atomic.get t.top in
    let b = Atomic.get t.bottom in
    if b - tp <= 0 then None
    else
      let buf = Atomic.get t.buf in
      let v = slot_get buf tp in
      if Atomic.compare_and_set t.top tp (tp + 1) then begin
        on_commit v;
        Some v
      end
      else None

  (* No multi-element CAS on [top], so a batch is [max] independent
     steals; the first empty/raced attempt ends the sweep. *)
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
    let b = Atomic.get t.bottom in
    let tp = Atomic.get t.top in
    Int.max 0 (b - tp)
end
