(* Flat result cell: one two-field record per spawn, no per-fill variant
   box.  [state] is 0 = pending, 1 = done, 2 = failed; [value] holds the
   result (or the exception) behind [Obj.t] so filling writes an existing
   field instead of allocating a [Done v] constructor.  The [Obj.magic]
   is confined to this module: [value] is only read as ['a] after [state]
   was observed as 1, and only as [exn] after 2, and both writes happen
   before the join-counter decrement that publishes them (see the .mli
   for the cross-domain argument). *)

type 'a t = { mutable value : Obj.t; mutable state : int }

let pending = 0
let done_ = 1
let failed = 2

(* Cross-pool completion cell (ISSUE 10): a promise minted by [spawn_on]
   is filled by a worker of a foreign pool whose join counters the
   caller never observes, so the flat cell's publish-through-the-join
   argument does not apply.  Such a promise carries [state = remote]
   permanently; [value] then holds a mutex/condvar box with its own
   state machine inside.  The flat hot-path layout (two words, zero
   extra fields) is untouched — only [spawn_on] pays for the box. *)
let remote = 3

type remote_box = {
  rmu : Mutex.t;
  rcv : Condition.t;
  mutable rstate : int;  (* pending / done_ / failed, moved under rmu *)
  mutable rvalue : Obj.t;
}

let nil = Obj.repr ()

let make () = { value = nil; state = pending }
let ready v = { value = Obj.repr v; state = done_ }
let raised e = { value = Obj.repr e; state = failed }

let make_remote () =
  {
    value =
      Obj.repr
        { rmu = Mutex.create (); rcv = Condition.create (); rstate = pending;
          rvalue = nil };
    state = remote;
  }

let box p : remote_box = Obj.obj p.value

let fill p v =
  p.value <- Obj.repr v;
  p.state <- done_

let fill_exn p e =
  p.value <- Obj.repr e;
  p.state <- failed

let fill_remote_with p st v =
  let b = box p in
  Mutex.lock b.rmu;
  b.rvalue <- v;
  b.rstate <- st;
  Condition.broadcast b.rcv;
  Mutex.unlock b.rmu

let fill_remote p v = fill_remote_with p done_ (Obj.repr v)
let fill_remote_exn p e = fill_remote_with p failed (Obj.repr e)

let not_ready runtime =
  invalid_arg
    (runtime
   ^ ": promise read before the child was synced (fully-strictness \
      violation)")

let remote_get ~runtime p =
  let b = box p in
  Mutex.lock b.rmu;
  let st = b.rstate and v = b.rvalue in
  Mutex.unlock b.rmu;
  if st = done_ then (Obj.obj v : 'a)
  else if st = failed then raise (Obj.obj v : exn)
  else not_ready runtime

let get ~runtime p =
  let s = p.state in
  if s = done_ then (Obj.obj p.value : 'a)
  else if s = failed then raise (Obj.obj p.value : exn)
  else if s = remote then remote_get ~runtime p
  else not_ready runtime

let await ~runtime p =
  let s = p.state in
  if s = done_ then (Obj.obj p.value : 'a)
  else if s = failed then raise (Obj.obj p.value : exn)
  else if s = remote then begin
    let b = box p in
    Mutex.lock b.rmu;
    while b.rstate = pending do
      Condition.wait b.rcv b.rmu
    done;
    let st = b.rstate and v = b.rvalue in
    Mutex.unlock b.rmu;
    if st = done_ then (Obj.obj v : 'a) else raise (Obj.obj v : exn)
  end
  else
    (* A flat promise is filled through its own pool's join protocol;
       there is nothing to block on from outside it. *)
    invalid_arg
      (runtime
     ^ ": await on an unfilled same-pool promise (sync the enclosing \
        scope instead)")
