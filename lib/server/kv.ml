module Span = Nowa_trace.Span
module Current = Nowa_trace.Current
module Ring = Nowa_trace.Ring
module Ev = Nowa_trace.Event

type key = int
type value = int

(* The per-shard tables, keyed by int.  The generic [Hashtbl] hashes
   each key with [caml_hash] and compares it with [caml_compare], two C
   calls per probe.  Identity is hash enough: a shard's keys are picked
   by their scrambled value ([shard_of_hash]), so the low bits that
   index its table are spread for any dense key range, such as the
   workloads' preloaded records and fresh inserts. *)
module H = Hashtbl.Make (struct
  type t = key

  let equal = Int.equal
  let hash k = k land max_int
end)

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

(* A point request.  Only point requests enter a mailbox: a multi-key
   op claims its shards itself ([exec_multi]). *)
type req = { id : int; op : op; out : outcome Atomic.t }

type shard = {
  sid : int;
  mail : req list Atomic.t;  (* Treiber-style LIFO; drained by exchange *)
  depth : int Atomic.t;  (* requests in [mail], for admission control *)
  combining : bool Atomic.t;
  table : value H.t;
  (* Holder-private state below: protected by [combining]. *)
  mutable claims : int;
      (* claims won so far, bumped by each winner while it holds the
         flag.  The convoy probe reads it racily to tell one long claim
         from a release and a re-claim between two of its scans. *)
  mutable log : log_entry list;
}

type t = {
  nshards : int;
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

(* [shard_of_hash] multiplies 32 bits by the shard count, so the
   product stays below 2^62, inside a positive OCaml int, up to 2^30
   shards. *)
let max_shards = 1 lsl 30

let create ?(shards = 16) ?(buckets_per_shard = 64) ?(queue_cap = 65536)
    ?(log = false) ?(span = Span.disabled) () =
  if shards < 1 || shards > max_shards then
    invalid_arg "Kv.create: shards must be in [1, 2^30]";
  if buckets_per_shard < 1 then
    invalid_arg "Kv.create: buckets_per_shard must be >= 1";
  (* 16 slots per bucket: at the defaults a shard's table takes 2,048
     keys before it first resizes, where a 64-slot start resized four
     times during the benchmark's 20,000-key preload. *)
  let slots = 16 * buckets_per_shard in
  let mk_shard sid =
    {
      sid;
      mail = Nowa_util.Padding.atomic [];
      depth = Nowa_util.Padding.atomic 0;
      combining = Nowa_util.Padding.atomic false;
      table = H.create slots;
      claims = 0;
      log = [];
    }
  in
  {
    nshards = shards;
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
   over shards instead of piling into one.  Multiply-shift maps the
   scrambled value's low 32 bits onto [0, nshards) for any shard count,
   with no division. *)
let[@inline] shard_of_hash t h = ((h land 0xFFFF_FFFF) * t.nshards) lsr 32
let[@inline] shard_of_key t k = shard_of_hash t (Nowa_util.Splitmix.scramble k)
let shards t = t.nshards

let[@inline] key_at op i =
  match op with
  | Multi_get ks -> ks.(i)
  | Multi_put kvs -> fst kvs.(i)
  | Get _ | Put _ | Add _ -> assert false

(* The shards of a multi-key op's keys, ascending: the order its claims
   follow, which is the deadlock-freedom argument (see kv.mli).  One
   entry per key, repeats kept and skipped by the claims ([new_shard]),
   so the array is the only allocation; insertion, where [Array.sort]
   allocates its helper closures on every call. *)
let footprint t op =
  let n =
    match op with
    | Multi_get ks -> Array.length ks
    | Multi_put kvs -> Array.length kvs
    | Get _ | Put _ | Add _ -> assert false
  in
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    let x = shard_of_key t (key_at op i) in
    let j = ref i in
    while !j > 0 && a.(!j - 1) > x do
      a.(!j) <- a.(!j - 1);
      decr j
    done;
    a.(!j) <- x
  done;
  a

let[@inline] new_shard foot i = i = 0 || foot.(i - 1) <> foot.(i)

(* Tracing hooks: under dune's [-opaque] no call into [Span] or [Ring]
   is inlined, so each tests its flag here and a store without them
   pays one branch per hook. *)
let[@inline] mark t rid phase = if t.span.Span.on then Span.mark t.span rid phase

let[@inline] emit (ring : Ring.t) kind sid id =
  if ring.Ring.enabled then Ring.emit2 ring kind sid id

(* Callers test [t.log_on] first, so a store without a log builds none
   of the entry's arguments. *)
let[@inline] observe t s ~id ~k ~read ~wrote =
  s.log <-
    { seq = Atomic.fetch_and_add t.seq 1; req_id = id; l_key = k; read; wrote }
    :: s.log

let push (s : shard) r =
  ignore (Atomic.fetch_and_add s.depth 1);
  let rec go () =
    let cur = Atomic.get s.mail in
    if not (Atomic.compare_and_set s.mail cur (r :: cur)) then go ()
  in
  go ()

let[@inline] has_mail (s : shard) =
  match Atomic.get s.mail with [] -> false | _ :: _ -> true

(* The flag alone: free, then CAS. *)
let[@inline] try_flag (s : shard) =
  (not (Atomic.get s.combining)) && Atomic.compare_and_set s.combining false true

(* -- applying ------------------------------------------------------------- *)

(* A point op on its shard [s], whose flag the caller holds; returns its
   outcome.  The span [Exec] mark and the Req_apply ring event come
   before the return, so in [handle] they precede the outcome
   [Atomic.set]: that store is the release edge that hands the request
   back to its submitter, so every span-array store sequenced before it
   is safely ordered against the submitter's [Span.finish]. *)
let apply_point t s ring ~id op =
  let o =
    match op with
    | Get k ->
      let v = H.find_opt s.table k in
      if t.log_on then observe t s ~id ~k ~read:v ~wrote:None;
      (match v with Some v -> Hit v | None -> Miss)
    | Put (k, v) ->
      if t.log_on then
        observe t s ~id ~k ~read:(H.find_opt s.table k) ~wrote:(Some v);
      H.replace s.table k v;
      Ack
    | Add (k, d) ->
      let prev = H.find_opt s.table k in
      let nv = match prev with Some v -> v + d | None -> d in
      if t.log_on then observe t s ~id ~k ~read:prev ~wrote:(Some nv);
      H.replace s.table k nv;
      Hit nv
    | Multi_get _ | Multi_put _ -> assert false
  in
  mark t id Span.Exec;
  emit ring Ev.Req_apply s.sid id;
  o

(* The table of [k]'s shard. *)
let[@inline] table t k = t.shards_.(shard_of_key t k).table

(* A multi-key op whose caller holds every footprint shard's flag,
   logged to its home shard [s].  Loops, not [Array.map]/[Array.iter],
   so no closure is built per request. *)
let apply_multi t s ~id op =
  match op with
  | Multi_get keys ->
    let n = Array.length keys in
    let res = Array.make n None in
    for i = 0 to n - 1 do
      let k = keys.(i) in
      let v = H.find_opt (table t k) k in
      if t.log_on then observe t s ~id ~k ~read:v ~wrote:None;
      res.(i) <- v
    done;
    Many res
  | Multi_put kvs ->
    for i = 0 to Array.length kvs - 1 do
      let k, v = kvs.(i) in
      let tbl = table t k in
      if t.log_on then
        observe t s ~id ~k ~read:(H.find_opt tbl k) ~wrote:(Some v);
      H.replace tbl k v
    done;
    Ack
  | Get _ | Put _ | Add _ -> assert false

(* -- combiner ------------------------------------------------------------- *)

(* Fault injection for the watchdog's convoy detector: a one-shot
   (shard, ms) wedge consumed by the next holder to run that shard's
   [combine], which then spins while holding the flag — exactly the
   pathology the convoy probe is meant to catch. *)
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

(* One mailbox request, applied by the combiner and published through
   its outcome cell; the [Atomic.set] is the release edge named at
   [apply_point]. *)
let handle t (s : shard) (r : req) =
  ignore (Atomic.fetch_and_add s.depth (-1));
  let c = Domain.DLS.get Current.key in
  (* The request is now owned by this combiner, so the plain span
     stores are race-free. *)
  if t.span.Span.on then Span.claim t.span r.id ~worker:c.worker;
  emit c.ring Ev.Req_claim s.sid r.id;
  Atomic.set r.out (apply_point t s c.ring ~id:r.id r.op)

(* Drain until the mailbox is empty, then release and re-check it.  The
   re-check is the one fence that hands every queued request a
   combiner: a request pushed between our last exchange and the flag
   release would otherwise be stranded, because its pusher saw
   [combining = true] and now only waits for its outcome (the
   kv_no_recheck row runs a generated copy without the re-check and
   finds the stranded request).  Every claim, whether a drained
   mailbox's, an idle point op's or a multi-key op's, is released
   here.  The mailbox is loaded before it is exchanged: only the holder
   takes mail, so a non-empty load means a non-empty exchange, and
   releasing a shard nobody queued on costs one locked instruction, the
   flag's store. *)
let rec combine t (s : shard) =
  if !wedge_armed then maybe_wedge s.sid;
  if has_mail s then begin
    List.iter (handle t s) (List.rev (Atomic.exchange s.mail []));
    combine t s
  end
  else begin
    Atomic.set s.combining false;
    if has_mail s then try_combine t s
  end

and try_combine t (s : shard) =
  if has_mail s && try_flag s then begin
    s.claims <- s.claims + 1;
    combine t s
  end

(* Watchdog probe.  A shard is reported once the probe has seen the
   same claim (same [claims] count, flag held) on an earlier scan more
   than [hold_ms] ago, with at least [min_depth] requests backed up
   behind it; [held_ms] counts from that first sighting.  The holder's
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
   combining attempt.  Nothing to help with: whoever holds the flag
   drains the mailbox, and its release re-check hands a later push a
   combiner. *)
let rec wait (r : req) bo =
  match Atomic.get r.out with
  | Pending ->
    Nowa_util.Backoff.once bo;
    wait r bo
  | o -> o

let[@inline] outcome (r : req) =
  match Atomic.get r.out with
  | Pending -> wait r (Nowa_util.Backoff.make ())
  | o -> o

(* Admission control: reject when the shard's queued-request count is
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
  mark t rid Span.Sched_wait;
  emit c.ring Ev.Req_submit s.sid r.id;
  push s r;
  try_combine t s;
  outcome r

(* One try-only claim of an idle shard: nothing queued, flag free, CAS. *)
let[@inline] try_claim (s : shard) =
  (not (has_mail s))
  && try_flag s
  && begin
       s.claims <- s.claims + 1;
       true
     end

(* A request whose caller claims its shards itself, homed at [s]:
   Sched_wait and the claim bank from one clock read, so Mailbox_wait
   is exactly 0. *)
let enter t (s : shard) (c : Current.ctx) ~rid ~id =
  if t.span.Span.on && Span.tracked t.span rid then begin
    let ts = Nowa_util.Clock.now_ns () in
    Span.mark_at t.span rid Span.Sched_wait ~ts;
    Span.claim_at t.span rid ~worker:c.worker ~ts
  end;
  emit c.ring Ev.Req_submit s.sid id;
  emit c.ring Ev.Req_claim s.sid id

(* A point op whose caller won an idle shard's flag: it is its own
   combiner.  It applies its op, runs the same drain -> release ->
   re-check loop as every claim, and returns the outcome itself: no
   request record, no outcome cell, and its events go to the ring [c]
   already names. *)
let exec_idle t (s : shard) (c : Current.ctx) ~rid ~id op =
  enter t s c ~rid ~id;
  let o = apply_point t s c.ring ~id op in
  combine t s;
  o

(* Take [s]'s flag for a multi-key op, backing off while another caller
   holds it.  Mail queued behind a free flag does not stop the claim:
   the release drains it.  True iff the claim waited. *)
let claim (s : shard) =
  let waited = not (try_flag s) in
  if waited then begin
    let bo = Nowa_util.Backoff.make () in
    while not (try_flag s) do
      Nowa_util.Backoff.once bo
    done
  end;
  s.claims <- s.claims + 1;
  waited

(* A multi-key op claims every footprint shard's flag in ascending
   order, waiting behind a held one, applies in place, then releases
   each shard through [combine].  The time spent waiting for flags is
   banked as Handoff_wait, and only when a claim waited. *)
let exec_multi t (home : shard) (c : Current.ctx) ~rid ~id op foot =
  enter t home c ~rid ~id;
  let waited = ref false in
  for i = 0 to Array.length foot - 1 do
    if new_shard foot i && claim t.shards_.(foot.(i)) then begin
      waited := true;
      ignore (Atomic.fetch_and_add t.handoffs_ 1);
      emit c.ring Ev.Req_handoff foot.(i) id
    end
  done;
  if !waited then mark t rid Span.Handoff_wait;
  let o = apply_multi t home ~id op in
  mark t rid Span.Exec;
  emit c.ring Ev.Req_apply home.sid id;
  for i = 0 to Array.length foot - 1 do
    if new_shard foot i then combine t t.shards_.(foot.(i))
  done;
  o

let exec ?(rid = -1) t op =
  match op with
  | Get k | Put (k, _) | Add (k, _) ->
    let s = t.shards_.(shard_of_key t k) in
    if over_cap t s rid then Dropped
    else begin
      let c = Domain.DLS.get Current.key in
      let id = request_id t c rid in
      (* Idle: nothing queued, flag free.  An armed wedge sends every
         point request through the mailbox, so the wedged claim always
         has one queued behind it for the convoy probe to see.  Only
         the mailbox path builds a request record. *)
      if (not !wedge_armed) && try_claim s then exec_idle t s c ~rid ~id op
      else submit t s c ~rid { id; op; out = Atomic.make Pending }
    end
  | Multi_get [||] -> Many [||]  (* no footprint, no home shard *)
  | Multi_put [||] -> Ack
  | Multi_get _ | Multi_put _ ->
    let foot = footprint t op in
    let home = t.shards_.(foot.(0)) in
    if over_cap t home rid then Dropped
    else begin
      let c = Domain.DLS.get Current.key in
      exec_multi t home c ~rid ~id:(request_id t c rid) op foot
    end

let size t = Array.fold_left (fun acc s -> acc + H.length s.table) 0 t.shards_
let fold f t init = Array.fold_left (fun acc s -> H.fold f s.table acc) init t.shards_

let dropped t = Atomic.get t.dropped_
let handoffs t = Atomic.get t.handoffs_
let claims t ~shard = t.shards_.(shard).claims

let log t =
  let entries =
    Array.fold_left (fun acc s -> List.rev_append s.log acc) [] t.shards_
  in
  List.sort (fun (a : log_entry) (b : log_entry) -> Int.compare a.seq b.seq) entries
