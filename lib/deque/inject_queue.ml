(* Michael–Scott queue with a GC doing the reclamation: nodes are never
   freed or reused while reachable, so there is no ABA and no hazard
   pointer, and a popped node's [next] link stays intact for any thread
   still walking through it. *)

type 'a node = { mutable value : 'a; next : 'a node Atomic.t }

(* The end of the list and a consumed value are both the unit word: an
   immediate that the GC skips in a pointer field and that no node or
   stored value equals physically.  It is compared, never dereferenced
   (the sentinel idiom of [Engine]'s recycled slots). *)
let[@inline] nil () = Obj.magic ()

type 'a t = {
  head : 'a node Atomic.t;
      (* the sentinel: the last node popped, or the initial one; the
         first queued value sits in its successor *)
  tail : 'a node Atomic.t;  (* the last node, or a node before it *)
}

let create () =
  let sentinel = { value = nil (); next = Atomic.make (nil ()) } in
  {
    head = Nowa_util.Padding.atomic sentinel;
    tail = Nowa_util.Padding.atomic sentinel;
  }

(* Link [n] after the last node, starting from [last]: a failed CAS
   means another push linked first, so follow its link. *)
let rec link last n =
  if not (Atomic.compare_and_set last.next (nil ()) n) then link (Atomic.get last.next) n

(* Point [tail] at [n] unless a later push has linked past it. *)
let rec fix_tail t n =
  let tl = Atomic.get t.tail in
  if Atomic.get n.next == nil () && not (Atomic.compare_and_set t.tail tl n) then
    fix_tail t n

let push t v =
  let n = { value = v; next = Atomic.make (nil ()) } in
  let tl = Atomic.get t.tail in
  link tl n;
  if not (Atomic.compare_and_set t.tail tl n) then fix_tail t n

(* The value is read only by the pop that moved [head] onto its node, so
   a losing pop never touches it, and clearing it afterwards keeps the
   new sentinel from retaining what it held.  [absent] stands for the
   empty queue, so a pop allocates nothing: the caller builds the one
   option it needs. *)
let rec pop_or t absent =
  let h = Atomic.get t.head in
  let next = Atomic.get h.next in
  if next == nil () then absent
  else if Atomic.compare_and_set t.head h next then begin
    let v = next.value in
    next.value <- nil ();
    v
  end
  else pop_or t absent

let length t =
  let rec count acc n =
    let next = Atomic.get n.next in
    if next == nil () then acc else count (acc + 1) next
  in
  count 0 (Atomic.get t.head)
