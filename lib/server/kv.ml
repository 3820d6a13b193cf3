module H = Hashtbl
module Span = Nowa_trace.Span
module Current = Nowa_trace.Current
module Ring = Nowa_trace.Ring
module Ev = Nowa_trace.Event

type key = int
type value = int

type op =
  | Get of key
  | Put of key * value
  | Add of key * value
  | Multi_get of key array
  | Multi_put of (key * value) array

type outcome =
  | Pending
  | Miss
  | Hit of value
  | Many of value option array
  | Ack
  | Dropped

type log_entry = {
  seq : int;
  req_id : int;
  l_key : key;
  read : value option;
  wrote : value option;
}

(* [foot] is a multi-key op's footprint ([footprint]), built once at
   submission; [[||]] for a single-key op, whose bucket is re-derived
   from its key. *)
type req = { id : int; op : op; foot : int array; out : outcome Atomic.t }

(* A multi-key transaction in flight at its home shard.  [needed] is its
   request's footprint: packed slots [shard * nbuckets + bucket], sorted
   as ints, which is the global (shard, bucket) order, and acquired left
   to right: the ordering is the deadlock-freedom argument (see kv.mli).
   All fields are only touched by the home shard's current combiner. *)
type txn = {
  t_req : req;
  home : int;
  needed : int array;
  mutable cursor : int;
  mutable held : (int * int * (key, value) H.t) list;
}

type msg =
  | Request of req
  | Borrow of { txn : txn; bucket : int }
  | Grant of { txn : txn; from_shard : int; from_bucket : int; data : (key, value) H.t }
  | Return of { bucket : int; data : (key, value) H.t }

type bucket = {
  mutable tbl : (key, value) H.t;
  (* [Some q] while the table is detached (on loan to a transaction);
     [q] holds messages for this bucket deferred until the Return. *)
  mutable loaned : msg Queue.t option;
}

type shard = {
  sid : int;
  mail : msg list Atomic.t;  (* Treiber-style LIFO; drained by exchange *)
  depth : int Atomic.t;  (* messages in [mail], for admission control *)
  combining : bool Atomic.t;
  buckets : bucket array;
  (* Combiner-private state below: protected by [combining]. *)
  mutable claims : int;
      (* claims won so far, bumped by each winner while it holds the
         flag.  The convoy probe reads it racily to tell one long claim
         from a release and a re-claim between two of its scans. *)
  mutable waiting : txn list;  (* home txns parked on a Grant or a local loan *)
  mutable to_poke : int list;  (* shards to kick after releasing the flag *)
  mutable recheck : bool;  (* a bucket came home; retry parked txns *)
  mutable log : log_entry list;
}

type t = {
  nshards : int;
  nbuckets : int;
  queue_cap : int;
  log_on : bool;
  shards_ : shard array;
  seq : int Atomic.t;
  next_id : int Atomic.t;
  dropped_ : int Atomic.t;
  handoffs_ : int Atomic.t;
  span : Span.t;  (* request-phase ledger; Span.disabled when not profiling *)
  (* The convoy probe's own state, per shard: the held claim it last
     saw and when it first saw it (0: none). *)
  seen_claim : int array;
  seen_ns : int array;
}

let create ?(shards = 16) ?(buckets_per_shard = 64) ?(queue_cap = 65536)
    ?(log = false) ?(span = Span.disabled) () =
  if shards < 1 then invalid_arg "Kv.create: shards must be >= 1";
  if buckets_per_shard < 1 then
    invalid_arg "Kv.create: buckets_per_shard must be >= 1";
  let mk_shard sid =
    {
      sid;
      mail = Nowa_util.Padding.atomic [];
      depth = Nowa_util.Padding.atomic 0;
      combining = Nowa_util.Padding.atomic false;
      buckets =
        Array.init buckets_per_shard (fun _ ->
            { tbl = H.create 16; loaned = None });
      claims = 0;
      waiting = [];
      to_poke = [];
      recheck = false;
      log = [];
    }
  in
  {
    nshards = shards;
    nbuckets = buckets_per_shard;
    queue_cap;
    log_on = log;
    shards_ = Array.init shards mk_shard;
    seq = Atomic.make 0;
    (* Internally-allocated ids start above the span's rid range so a
       caller-supplied rid can double as the request id without
       colliding with preload/untracked traffic. *)
    next_id = Atomic.make (Span.capacity span);
    dropped_ = Nowa_util.Padding.atomic 0;
    handoffs_ = Nowa_util.Padding.atomic 0;
    span;
    seen_claim = Array.make shards 0;
    seen_ns = Array.make shards 0;
  }

(* Scrambled placement so that adjacent (e.g. zipf-hot) keys spread
   over shards instead of piling into one bucket.  A key's slot packs
   its place as [shard * nbuckets + bucket], so slots compared as ints
   order like (shard, bucket) pairs. *)
let[@inline] shard_of_hash t h = h mod t.nshards
let[@inline] bucket_of_hash t h = h / t.nshards mod t.nbuckets
let[@inline] bucket_of_key t k = bucket_of_hash t (Nowa_util.Splitmix.scramble k)
let shard_of_key t k = shard_of_hash t (Nowa_util.Splitmix.scramble k)
let shards t = t.nshards

let slot t k =
  let h = Nowa_util.Splitmix.scramble k in
  (shard_of_hash t h * t.nbuckets) + bucket_of_hash t h

(* Sorted, de-duplicated slots of a multi-key op. *)
let footprint t op =
  let a =
    match op with
    | Multi_get ks -> Array.map (slot t) ks
    | Multi_put kvs -> Array.map (fun (k, _) -> slot t k) kvs
    | Get _ | Put _ | Add _ -> assert false
  in
  Array.sort Int.compare a;
  let n = ref 0 in
  for i = 0 to Array.length a - 1 do
    if !n = 0 || a.(!n - 1) <> a.(i) then begin
      a.(!n) <- a.(i);
      incr n
    end
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

(* Callers test [t.log_on] first, so a store without a log builds none
   of the entry's arguments. *)
let[@inline] observe t s ~(r : req) ~k ~read ~wrote =
  s.log <-
    { seq = Atomic.fetch_and_add t.seq 1; req_id = r.id; l_key = k; read; wrote }
    :: s.log

let[@inline] fill (r : req) o = Atomic.set r.out o

(* -- mailbox -------------------------------------------------------------- *)

(* Raw Treiber push, no depth accounting: for re-injecting deferred
   messages whose admission slot is still held (see [defer]). *)
let push_raw (s : shard) m =
  let rec go () =
    let cur = Atomic.get s.mail in
    if not (Atomic.compare_and_set s.mail cur (m :: cur)) then go ()
  in
  go ()

let push_msg (s : shard) m =
  ignore (Atomic.fetch_and_add s.depth 1);
  push_raw s m

(* Park a message behind a loaned bucket.  It takes an admission slot
   (a drained message gave its own back in [handle]; an idle-path
   request never took one), so work queued behind the loan keeps
   counting against [queue_cap] for the whole loan window. *)
let defer (s : shard) q m =
  ignore (Atomic.fetch_and_add s.depth 1);
  Queue.add m q

let[@inline] has_mail (s : shard) =
  match Atomic.get s.mail with [] -> false | _ :: _ -> true

let[@inline] poke_later (s : shard) j =
  if j <> s.sid && not (List.mem j s.to_poke) then s.to_poke <- j :: s.to_poke

(* -- combiner ------------------------------------------------------------- *)

(* The span [Exec] mark and the Req_apply ring event must precede
   [fill]: the outcome [Atomic.set] is the release edge that hands the
   request back to its injector, so every span-array store sequenced
   before it is safely ordered against the injector's [Span.finish]. *)
let[@inline] finish_apply t (s : shard) (r : req) o =
  Span.mark t.span r.id Span.Exec;
  Current.emit Ev.Req_apply ~arg:s.sid ~arg2:r.id;
  fill r o

let apply_single t s (r : req) tbl =
  let o =
    match r.op with
    | Get k ->
      let v = H.find_opt tbl k in
      if t.log_on then observe t s ~r ~k ~read:v ~wrote:None;
      (match v with Some v -> Hit v | None -> Miss)
    | Put (k, v) ->
      if t.log_on then observe t s ~r ~k ~read:(H.find_opt tbl k) ~wrote:(Some v);
      H.replace tbl k v;
      Ack
    | Add (k, d) ->
      let prev = H.find_opt tbl k in
      let nv = match prev with Some v -> v + d | None -> d in
      if t.log_on then observe t s ~r ~k ~read:prev ~wrote:(Some nv);
      H.replace tbl k nv;
      Hit nv
    | Multi_get _ | Multi_put _ -> assert false
  in
  finish_apply t s r o

let rec handle t (s : shard) msg =
  ignore (Atomic.fetch_and_add s.depth (-1));
  match msg with
  | Request r ->
    (* First claim closes Mailbox_wait; a re-claim after a loan
       deferral closes Loan_defer.  Either way the request is now owned
       by this combiner, so the plain span stores are race-free. *)
    if Span.tracked t.span r.id then
      Span.claim t.span r.id ~worker:(Current.worker ());
    Current.emit Ev.Req_claim ~arg:s.sid ~arg2:r.id;
    handle_request t s r
  | Borrow { txn; bucket } ->
    let b = s.buckets.(bucket) in
    (match b.loaned with
    | Some q ->
      Span.note_defer t.span txn.t_req.id;
      Current.emit Ev.Req_defer ~arg:s.sid ~arg2:txn.t_req.id;
      defer s q msg
    | None ->
      b.loaned <- Some (Queue.create ());
      ignore (Atomic.fetch_and_add t.handoffs_ 1);
      Current.emit Ev.Req_handoff ~arg:s.sid ~arg2:txn.t_req.id;
      push_msg t.shards_.(txn.home)
        (Grant { txn; from_shard = s.sid; from_bucket = bucket; data = b.tbl });
      poke_later s txn.home)
  | Grant { txn; from_shard; from_bucket; data } ->
    txn.held <- (from_shard, from_bucket, data) :: txn.held;
    txn.cursor <- txn.cursor + 1;
    if advance t s txn then s.waiting <- List.filter (fun x -> x != txn) s.waiting
  | Return { bucket; data } ->
    let b = s.buckets.(bucket) in
    (match b.loaned with
    | Some q -> reattach s b data q
    | None -> assert false)

and handle_request t s (r : req) =
  match r.op with
  | Get k | Put (k, _) | Add (k, _) ->
    let b = s.buckets.(bucket_of_key t k) in
    (match b.loaned with
    | Some q ->
      Span.note_defer t.span r.id;
      Current.emit Ev.Req_defer ~arg:s.sid ~arg2:r.id;
      defer s q (Request r)
    | None -> apply_single t s r b.tbl)
  | Multi_get _ | Multi_put _ ->
    let txn =
      {
        t_req = r;
        home = s.sid;
        needed = r.foot;
        cursor = 0;
        held = [];
      }
    in
    if not (advance t s txn) then s.waiting <- txn :: s.waiting

(* Drive acquisition from the cursor.  True iff the txn completed. *)
and advance t s txn =
  if txn.cursor >= Array.length txn.needed then begin
    apply_txn t s txn;
    true
  end
  else begin
    let slot = txn.needed.(txn.cursor) in
    let sh = slot / t.nbuckets and bk = slot mod t.nbuckets in
    if sh = s.sid then begin
      let b = s.buckets.(bk) in
      match b.loaned with
      | None ->
        b.loaned <- Some (Queue.create ());
        txn.held <- (sh, bk, b.tbl) :: txn.held;
        txn.cursor <- txn.cursor + 1;
        advance t s txn
      | Some _ -> false (* parked until the local bucket comes home *)
    end
    else begin
      push_msg t.shards_.(sh) (Borrow { txn; bucket = bk });
      poke_later s sh;
      false (* parked until the Grant *)
    end
  end

and apply_txn t s txn =
  let r = txn.t_req in
  (* Everything since the claim was spent collecting buckets (local
     acquisitions, Borrow round-trips, loans ahead of us). *)
  Span.mark t.span r.id Span.Handoff_wait;
  let tbl_for k =
    let h = Nowa_util.Splitmix.scramble k in
    let sh = shard_of_hash t h and bk = bucket_of_hash t h in
    let rec find = function
      | (s', b', tbl) :: _ when s' = sh && b' = bk -> tbl
      | _ :: rest -> find rest
      | [] -> assert false
    in
    find txn.held
  in
  (match r.op with
  | Multi_get keys ->
    let res =
      Array.map
        (fun k ->
          let v = H.find_opt (tbl_for k) k in
          if t.log_on then observe t s ~r ~k ~read:v ~wrote:None;
          v)
        keys
    in
    finish_apply t s r (Many res)
  | Multi_put kvs ->
    Array.iter
      (fun (k, v) ->
        let tbl = tbl_for k in
        if t.log_on then observe t s ~r ~k ~read:(H.find_opt tbl k) ~wrote:(Some v);
        H.replace tbl k v)
      kvs;
    finish_apply t s r Ack
  | Get _ | Put _ | Add _ -> assert false);
  List.iter
    (fun (sh, bk, data) ->
      if sh = s.sid then begin
        let b = s.buckets.(bk) in
        match b.loaned with
        | Some q -> reattach s b data q
        | None -> assert false
      end
      else begin
        push_msg t.shards_.(sh) (Return { bucket = bk; data });
        poke_later s sh
      end)
    txn.held

(* Bucket comes home: re-inject deferred messages (they re-enter the
   mailbox and are handled in a later batch) and flag parked txns for
   retry.  Deferred messages kept their admission slot ([defer]
   re-incremented depth), so re-injection must not count them again;
   the slot is released when the message is finally handled. *)
and reattach (s : shard) b data q =
  b.tbl <- data;
  b.loaned <- None;
  Queue.iter (fun m -> push_raw s m) q;
  s.recheck <- true

(* Retry parked txns whose cursor points at a local bucket.  Safe to
   run the filter while [advance] fires: completion only reattaches
   buckets and sends messages, never touches [s.waiting]. *)
let retry_waiting t s =
  s.waiting <-
    List.filter
      (fun txn ->
        let parked_local =
          txn.cursor < Array.length txn.needed
          && txn.needed.(txn.cursor) / t.nbuckets = s.sid
        in
        if parked_local then not (advance t s txn) else true)
      s.waiting

(* Fault injection for the watchdog's convoy detector: a one-shot
   (shard, ms) wedge consumed by the next combiner to claim that shard,
   which then spins while holding the flag — exactly the pathology the
   convoy probe is meant to catch. *)
let wedge_armed : bool ref = ref false
let wedge_spec : (int * int) option Atomic.t = Atomic.make None

let inject_wedge ~shard ~ms =
  Atomic.set wedge_spec (Some (shard, ms));
  wedge_armed := true

let clear_wedge () =
  Atomic.set wedge_spec None;
  wedge_armed := false

let[@inline never] maybe_wedge sid =
  (* CAS against the witnessed value (physical equality), so exactly one
     combiner consumes the wedge. *)
  let cur = Atomic.get wedge_spec in
  match cur with
  | Some (w, ms) when w = sid ->
    if Atomic.compare_and_set wedge_spec cur None then begin
      wedge_armed := false;
      Nowa_util.Clock.spin_ns (ms * 1_000_000)
    end
  | _ -> ()

(* Drain until the mailbox is empty AND no reattach is pending, then
   release and re-check the mailbox.  Both halves of the condition are
   load-bearing fences, each model-checked:

   - mailbox: a message pushed between our last exchange and the flag
     release would otherwise be stranded, because its pusher saw
     [combining = true] and went away (kv_combiner spec);
   - recheck: [retry_waiting] can itself complete a transaction whose
     reattach sets [s.recheck] again after we cleared it.  A txn parked
     on the just-reattached bucket — already filtered earlier in the
     same pass — would then be stranded with an empty mailbox, and
     nothing would ever wake the combiner for it ([try_combine] only
     enters on mail).  Looping on [s.recheck] re-runs the retry before
     release (kv_parked_retry spec). *)
let rec combine t (s : shard) =
  if !wedge_armed then maybe_wedge s.sid;
  (match Atomic.exchange s.mail [] with
  | [] -> ()
  | batch -> List.iter (handle t s) (List.rev batch));
  if s.recheck then begin
    s.recheck <- false;
    retry_waiting t s
  end;
  if s.recheck || has_mail s then combine t s
  else begin
    let pokes = s.to_poke in
    s.to_poke <- [];
    Atomic.set s.combining false;
    (match pokes with [] -> () | _ -> List.iter (try_combine t) pokes);
    if has_mail s then try_combine t s.sid
  end

and try_combine t j =
  let s = t.shards_.(j) in
  if
    has_mail s
    && (not (Atomic.get s.combining))
    && Atomic.compare_and_set s.combining false true
  then begin
    s.claims <- s.claims + 1;
    combine t s
  end

(* Watchdog probe.  A shard is reported once the probe has seen the
   same claim (same [claims] count, flag held) on an earlier scan more
   than [hold_ms] ago, with at least [min_depth] messages backed up
   behind it; [held_ms] counts from that first sighting.  The combiner's
   fields are read racily by design: a count read just before its
   winner bumps it costs one more scan.  [seen_claim]/[seen_ns] are the
   probe's own, so it takes one caller at a time. *)
let convoys ?(hold_ms = 50.0) ?(min_depth = 1) t =
  let now = Nowa_util.Clock.now_ns () in
  let out = ref [] in
  Array.iter
    (fun s ->
      let i = s.sid and claim = s.claims in
      if not (Atomic.get s.combining) then t.seen_ns.(i) <- 0
      else if t.seen_ns.(i) = 0 || t.seen_claim.(i) <> claim then begin
        t.seen_claim.(i) <- claim;
        t.seen_ns.(i) <- now
      end
      else begin
        let depth = Atomic.get s.depth in
        let held_ms = float (now - t.seen_ns.(i)) /. 1e6 in
        if depth >= min_depth && held_ms > hold_ms then
          out := Nowa_runtime.Health.Convoy { shard = i; depth; held_ms } :: !out
      end)
    t.shards_;
  !out

(* -- client API ----------------------------------------------------------- *)

(* Wait for a request that is still [Pending] after its submitter's own
   combining pass, helping the combiners meanwhile. *)
let rec wait t home (r : req) bo =
  match Atomic.get r.out with
  | Pending ->
    try_combine t home;
    (* A parked transaction makes progress on other shards; sweep them
       occasionally so a foreign mailbox with no local traffic cannot
       sit idle under us. *)
    if Nowa_util.Backoff.steps bo land 15 = 15 then
      for j = 0 to t.nshards - 1 do
        try_combine t j
      done;
    Nowa_util.Backoff.once bo;
    wait t home r bo
  | o -> o

let[@inline] outcome t home (r : req) =
  match Atomic.get r.out with
  | Pending -> wait t home r (Nowa_util.Backoff.make ())
  | o -> o

(* Admission control: reject when the shard's pending-message count is
   at the cap. *)
let over_cap t (s : shard) rid =
  Atomic.get s.depth >= t.queue_cap
  && begin
       ignore (Atomic.fetch_and_add t.dropped_ 1);
       Span.drop t.span rid;
       true
     end

(* An internal id is drawn only when something reads it: the apply log,
   or the calling domain's trace ring, whose request flows join on it.
   Otherwise the request stays unnamed (-1) and the store-wide counter
   is left alone. *)
let[@inline] request_id t (c : Current.ctx) rid =
  if rid >= 0 then rid
  else if t.log_on || c.ring.Ring.enabled then Atomic.fetch_and_add t.next_id 1
  else -1

let submit t (s : shard) (c : Current.ctx) ~rid (r : req) =
  (* Scheduled arrival -> here is pure scheduling: injector lag, the
     spawn, any steal or park-wake.  Bank it before the push so the
     mailbox CAS orders the store against the claiming combiner. *)
  Span.mark t.span rid Span.Sched_wait;
  Ring.emit2 c.ring Ev.Req_submit s.sid r.id;
  push_msg s (Request r);
  try_combine t s.sid;
  outcome t s.sid r

(* A point op whose submitter won an idle shard's flag: it is its own
   combiner.  It handles its request as it would a drained one (apply,
   or defer behind a loaned bucket), then enters the same drain ->
   release -> re-check loop as every claim.  Sched_wait and the claim
   bank from one clock read, so Mailbox_wait is exactly 0. *)
let exec_idle t (s : shard) (c : Current.ctx) ~rid (r : req) =
  s.claims <- s.claims + 1;
  if Span.tracked t.span rid then begin
    let ts = Nowa_util.Clock.now_ns () in
    Span.mark_at t.span rid Span.Sched_wait ~ts;
    Span.claim_at t.span rid ~worker:c.worker ~ts
  end;
  Ring.emit2 c.ring Ev.Req_submit s.sid r.id;
  Ring.emit2 c.ring Ev.Req_claim s.sid r.id;
  handle_request t s r;
  combine t s;
  outcome t s.sid r

let exec ?(rid = -1) t op =
  match op with
  | Get k | Put (k, _) | Add (k, _) ->
    let s = t.shards_.(shard_of_key t k) in
    if over_cap t s rid then Dropped
    else begin
      let c = Domain.DLS.get Current.key in
      let r =
        { id = request_id t c rid; op; foot = [||]; out = Atomic.make Pending }
      in
      (* Idle: nothing queued, flag free.  An armed wedge sends every
         request through the mailbox, so the wedged claim always has
         one queued behind it for the convoy probe to see. *)
      if
        (not (has_mail s))
        && (not (Atomic.get s.combining))
        && (not !wedge_armed)
        && Atomic.compare_and_set s.combining false true
      then exec_idle t s c ~rid r
      else submit t s c ~rid r
    end
  | Multi_get [||] -> Many [||]  (* no footprint, no home shard *)
  | Multi_put [||] -> Ack
  | Multi_get _ | Multi_put _ ->
    let foot = footprint t op in
    let s = t.shards_.(foot.(0) / t.nbuckets) in
    if over_cap t s rid then Dropped
    else begin
      let c = Domain.DLS.get Current.key in
      submit t s c ~rid
        { id = request_id t c rid; op; foot; out = Atomic.make Pending }
    end

let size t =
  Array.fold_left
    (fun acc s ->
      Array.fold_left (fun acc b -> acc + H.length b.tbl) acc s.buckets)
    0 t.shards_

let fold f t init =
  Array.fold_left
    (fun acc s ->
      Array.fold_left (fun acc b -> H.fold f b.tbl acc) acc s.buckets)
    init t.shards_

let dropped t = Atomic.get t.dropped_
let handoffs t = Atomic.get t.handoffs_

let log t =
  let entries =
    Array.fold_left (fun acc s -> List.rev_append s.log acc) [] t.shards_
  in
  List.sort (fun (a : log_entry) (b : log_entry) -> compare a.seq b.seq) entries
