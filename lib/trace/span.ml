(** Request-scoped span ledgers for the serving layer.

    A span collector owns one flat int array holding a fixed-size record
    per compact request id (rid), allocated from a plain fetch-and-add
    counter at injection time — no SplitMix, no hashing, ids are dense
    so every per-request field is an O(1) array slot.  A record is
    [stride] words: a request's fields sit in two or three adjacent
    cache lines, few of them shared with the neighbouring rids that the
    injector and another worker write at the same time.  As a request
    moves through the serving pipeline each station calls
    {!mark}/{!claim}/{!finish}, which close the interval since the
    previous mark into a named phase:

    - [Sched_wait]    scheduled arrival -> mailbox push (injector lag,
                      spawn, steal, park-wake latency)
    - [Mailbox_wait]  mailbox push -> combiner claim
    - [Handoff_wait]  multi-key claim -> every footprint flag held, when
                      a flag another caller held made it wait
    - [Exec]          store operation itself
    - [Reply]         outcome published -> injector observes it

    {b Conservation.}  Every write advances the single per-request
    watermark [last] by exactly the amount it banks, so the phase
    sums telescope: [sum_p phase_ns(rid,p) = done_ns(rid) -
    sched_ns(rid)] holds {e exactly} (integer nanoseconds, zero
    accounting error) for every finished request, not just in
    expectation.  The checker {!conservation_error} returns the residual,
    which tests pin to 0.

    {b Memory model.}  The records are plain (non-atomic), yet writes come
    from whichever domain holds the request at that moment.  This is
    data-race-free because at any instant exactly one domain owns a
    request, and every ownership transfer is an atomic edge that the
    marks piggyback on: injector -> worker via the runtime deque publish,
    worker -> combiner via the mailbox Treiber CAS / drain exchange, and
    combiner -> injector via the outcome [Atomic.set]/[get].  Each
    release/acquire pair orders the plain stores before the next
    reader's loads.

    {b Tail reservoir.}  {!finish} offers the end-to-end latency to a
    bounded top-K-by-latency reservoir of K packed atomic words
    [(latency << rid_bits) | (rid+1)].  The common-case claim is
    wait-free: one load of a cached threshold word (kept [<=] the true
    reservoir minimum) rejects every request that cannot displace the
    current minimum.  Slower requests replace the observed minimum slot
    by CAS; a failed CAS retries the scan, and since slot values only
    ever grow the loop terminates as soon as the candidate no longer
    beats the minimum — so the final contents are exactly the top-K
    offered latencies (ties at the boundary resolved arbitrarily). *)

type phase = Sched_wait | Mailbox_wait | Handoff_wait | Exec | Reply

let phases = [| Sched_wait; Mailbox_wait; Handoff_wait; Exec; Reply |]
let n_phases = Array.length phases

let phase_index = function
  | Sched_wait -> 0
  | Mailbox_wait -> 1
  | Handoff_wait -> 2
  | Exec -> 3
  | Reply -> 4

let phase_name = function
  | Sched_wait -> "sched_wait"
  | Mailbox_wait -> "mailbox_wait"
  | Handoff_wait -> "handoff_wait"
  | Exec -> "exec"
  | Reply -> "reply"

(* Per-request flag bits. *)
let f_measured = 1
let f_finished = 2
let f_dropped = 4

(* Tail-reservoir packing: latency in the high bits, rid+1 in the low
   [rid_bits] (0 = empty slot).  21 bits bound the collector capacity at
   ~2M requests per run; latencies clamp at ~2^41 ns (~36 min). *)
let rid_bits = 21
let max_rid = (1 lsl rid_bits) - 2
let max_lat = (1 lsl (Sys.int_size - 1 - rid_bits)) - 1
let pack ~lat ~rid = ((min lat max_lat) lsl rid_bits) lor (rid + 1)
let lat_of p = p asr rid_bits
let rid_of p = (p land ((1 lsl rid_bits) - 1)) - 1

(* Word offsets within a rid's record.  The fields every mark touches
   come first. *)
let o_last = 0  (* watermark: ts of the request's previous mark *)
let o_ledger = 1  (* n_phases accumulated ns *)
let o_flags = o_ledger + n_phases
let o_sched = o_flags + 1  (* scheduled-arrival ns (absolute) *)
let o_fin = o_sched + 1  (* completion ns; meaningful once finished *)
let o_cls = o_fin + 1  (* op-class index from the workload *)
let o_combined = o_cls + 1  (* worker id of the claiming combiner *)
let stride = 16

type t = {
  on : bool;
  cap : int;
  next : int Atomic.t;  (* rid allocator: plain fetch-and-add *)
  overflow : int Atomic.t;  (* allocs refused because cap was reached *)
  recs : int array;  (* cap * stride: one record per rid *)
  tail : int Atomic.t array;  (* top-K packed (lat, rid) slots *)
  threshold : int Atomic.t;  (* cached lower bound on the tail minimum *)
}

(* The word [off] of [rid]'s record. *)
let[@inline] get t rid off = t.recs.((rid * stride) + off)
let[@inline] set t rid off v = t.recs.((rid * stride) + off) <- v

let disabled =
  {
    on = false;
    cap = 0;
    next = Atomic.make 0;
    overflow = Atomic.make 0;
    recs = [||];
    tail = [||];
    threshold = Atomic.make 0;
  }

let create ?(tail = 64) ~capacity () =
  if capacity <= 0 then disabled
  else begin
    let cap = min capacity (max_rid + 1) in
    let tail = max 1 tail in
    {
      on = true;
      cap;
      next = Atomic.make 0;
      overflow = Atomic.make 0;
      recs =
        Array.init (cap * stride) (fun i ->
            if i mod stride = o_combined then -1 else 0);
      tail = Array.init tail (fun _ -> Atomic.make 0);
      threshold = Atomic.make 0;
    }
  end

let enabled t = t.on
let capacity t = t.cap
let allocated t = if t.on then min (Atomic.get t.next) t.cap else 0
let overflowed t = Atomic.get t.overflow

(** Allocate a rid for a request scheduled to arrive at [sched_ns].
    Returns [-1] (ignored by every other entry point) when the collector
    is disabled or full. *)
let alloc t ~cls ~measured ~sched_ns =
  if not t.on then -1
  else begin
    let rid = Atomic.fetch_and_add t.next 1 in
    if rid >= t.cap then begin
      Atomic.incr t.overflow;
      -1
    end
    else begin
      set t rid o_sched sched_ns;
      set t rid o_last sched_ns;
      set t rid o_cls cls;
      set t rid o_flags (if measured then f_measured else 0);
      rid
    end
  end

let[@inline] tracked t rid = t.on && rid >= 0 && rid < t.cap

(** Bank [ts - last] into [phase] and advance the watermark. *)
let[@inline] mark_at t rid phase ~ts =
  if tracked t rid then begin
    let b = rid * stride in
    let i = b + o_ledger + phase_index phase in
    t.recs.(i) <- t.recs.(i) + (ts - t.recs.(b + o_last));
    t.recs.(b + o_last) <- ts
  end

let[@inline] mark t rid phase =
  if tracked t rid then mark_at t rid phase ~ts:(Nowa_util.Clock.now_ns ())

(** A combiner picked the request out of a drained batch (at [ts]):
    closes [Mailbox_wait] and records the claiming worker. *)
let claim_at t rid ~worker ~ts =
  if tracked t rid then begin
    mark_at t rid Mailbox_wait ~ts;
    set t rid o_combined worker
  end

let claim t rid ~worker =
  if tracked t rid then claim_at t rid ~worker ~ts:(Nowa_util.Clock.now_ns ())

let drop t rid =
  if tracked t rid then set t rid o_flags (get t rid o_flags lor f_dropped)

(* --- tail reservoir ----------------------------------------------------- *)

(** Offer a finished request to the top-K reservoir.  Exposed for the
    concurrency tests; {!finish} calls it on every measured request. *)
let offer_tail t ~rid ~lat_ns =
  if t.on && Array.length t.tail > 0 then begin
    let lat = max 0 lat_ns in
    let k = Array.length t.tail in
    let rec attempt () =
      (* Wait-free fast path: one load; threshold is always <= the true
         reservoir minimum, so rejection here is never wrong. *)
      if lat > Atomic.get t.threshold then begin
        let mi = ref 0 and mv = ref (Atomic.get t.tail.(0)) in
        for i = 1 to k - 1 do
          let v = Atomic.get t.tail.(i) in
          if lat_of v < lat_of !mv then begin
            mi := i;
            mv := v
          end
        done;
        if lat > lat_of !mv then
          if Atomic.compare_and_set t.tail.(!mi) !mv (pack ~lat ~rid) then begin
            (* Re-derive a threshold from a fresh scan.  Slot values only
               grow, so the scanned minimum is <= every future minimum
               and the cached word stays a sound lower bound; CAS up only
               so concurrent raisers never regress it. *)
            let m = ref max_int in
            for i = 0 to k - 1 do
              m := min !m (lat_of (Atomic.get t.tail.(i)))
            done;
            let rec bump () =
              let cur = Atomic.get t.threshold in
              if !m > cur && not (Atomic.compare_and_set t.threshold cur !m)
              then bump ()
            in
            bump ()
          end
          else attempt ()
      end
    in
    attempt ()
  end

(** The reservoir contents, slowest first: [(rid, latency_ns)]. *)
let tail_entries t =
  if not t.on then []
  else
    Array.to_list t.tail
    |> List.filter_map (fun s ->
           let p = Atomic.get s in
           if p = 0 then None else Some (rid_of p, lat_of p))
    |> List.sort (fun (_, a) (_, b) -> compare b a)

let tail_threshold t = Atomic.get t.threshold

(** Close [Reply] at [ts] and record completion; measured requests are
    offered to the tail reservoir. *)
let finish t rid ~ts =
  if tracked t rid then begin
    mark_at t rid Reply ~ts;
    set t rid o_fin ts;
    let f = get t rid o_flags lor f_finished in
    set t rid o_flags f;
    if f land f_measured <> 0 then
      offer_tail t ~rid ~lat_ns:(ts - get t rid o_sched)
  end

(* --- accessors ----------------------------------------------------------- *)

let phase_ns t rid phase =
  if tracked t rid then get t rid (o_ledger + phase_index phase) else 0

let sched_ns t rid = if tracked t rid then get t rid o_sched else 0
let done_ns t rid = if tracked t rid then get t rid o_fin else 0
let cls_of t rid = if tracked t rid then get t rid o_cls else 0
let combiner_of t rid = if tracked t rid then get t rid o_combined else -1
let finished t rid = tracked t rid && get t rid o_flags land f_finished <> 0
let measured t rid = tracked t rid && get t rid o_flags land f_measured <> 0
let was_dropped t rid = tracked t rid && get t rid o_flags land f_dropped <> 0

let total_ns t rid =
  if finished t rid then get t rid o_fin - get t rid o_sched else 0

(** [total_ns - sum of phases]; exactly 0 for every finished request (the
    marks telescope), any other value is an accounting bug. *)
let conservation_error t rid =
  if not (finished t rid) then 0
  else begin
    let sum = ref 0 in
    for p = 0 to n_phases - 1 do
      sum := !sum + get t rid (o_ledger + p)
    done;
    total_ns t rid - !sum
  end
