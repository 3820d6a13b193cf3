(** Fixed-capacity ring buffer of scheduler events, owned by one worker.

    Wait-freedom is by construction: only the owning worker ever writes,
    nothing reads until the domains have joined, so an [emit] is a handful
    of int-array stores and one index bump — no CAS, no lock, no
    allocation.  When full the ring overwrites the oldest entries
    (monotonic head index, power-of-two capacity, mask addressing), so a
    long run keeps the most recent window instead of failing.

    A disabled ring costs a single flag check inside [emit], but a caller
    in another module still pays the call that reaches it: dune's dev
    profile builds with [-opaque], so [emit] is never inlined there.  The
    engines therefore test their worker's own tracing flag before each
    emission, and hold a ring unconditionally so that flag is the only
    test (no option match). *)

type t = {
  enabled : bool;
  mask : int;  (* capacity - 1; capacity is a power of two *)
  ts : int array;  (* timestamp (ns) per slot *)
  kinds : int array;  (* Event.to_int per slot *)
  args : int array;  (* event argument per slot *)
  args2 : int array;  (* second argument (request id) per slot *)
  chk : int array;  (* mixed hash of the slot's four words, for live snapshots *)
  mutable head : int;  (* total events ever emitted (not wrapped) *)
}

let disabled =
  {
    enabled = false;
    mask = 0;
    ts = [| 0 |];
    kinds = [| 0 |];
    args = [| 0 |];
    args2 = [| 0 |];
    chk = [| 0 |];
    head = 0;
  }

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ~capacity =
  if capacity <= 0 then disabled
  else begin
    let cap = pow2_at_least capacity 16 in
    (* One domain allocates every worker's ring, so the records would
       sit side by side once promoted: padding keeps each [head], written
       on every emission, off its neighbours' lines. *)
    Nowa_util.Padding.isolate (fun () ->
        {
          enabled = true;
          mask = cap - 1;
          ts = Array.make cap 0;
          kinds = Array.make cap 0;
          args = Array.make cap 0;
          args2 = Array.make cap 0;
          chk = Array.make cap 0;
          head = 0;
        })
  end

let capacity r = if r.enabled then r.mask + 1 else 0

(* Hot path: one predictable branch when disabled; five int stores, an
   int store of the clock reading and an index bump when enabled.  The
   args2 store is unconditional so scheduler events (which carry no
   request id) pay exactly one extra int store over the PR-1 layout;
   the checksum store is one more, paid only when tracing is on, and is
   what lets the flight recorder snapshot a live ring (see {!snapshot}). *)
(* Slot checksum.  A plain xor of the four words is not enough: events
   whose fields are correlated (e.g. [arg] derived from [ts]) make the
   xor cancel, so a read mixing words from two writes of the same slot
   could still pass.  Multiplying each word by a distinct odd constant
   first (xxhash-style) diffuses every field across the word, so a
   mixed-generation read only passes on a 63-bit hash collision. *)
let[@inline] slot_chk ts k arg arg2 =
  (ts * 0x9E3779B1) lxor (k * 0x85EBCA77) lxor (arg * 0xC2B2AE3D)
  lxor (arg2 * 0x27D4EB2F)

let[@inline] emit_at2 r ~ts kind arg arg2 =
  if r.enabled then begin
    let i = r.head land r.mask in
    let k = Event.to_int kind in
    r.ts.(i) <- ts;
    r.kinds.(i) <- k;
    r.args.(i) <- arg;
    r.args2.(i) <- arg2;
    r.chk.(i) <- slot_chk ts k arg arg2;
    r.head <- r.head + 1
  end

let[@inline] emit_at r ~ts kind arg = emit_at2 r ~ts kind arg 0

let[@inline] emit2 r kind arg arg2 =
  if r.enabled then emit_at2 r ~ts:(Nowa_util.Clock.now_ns ()) kind arg arg2

let[@inline] emit r kind arg =
  if r.enabled then emit_at2 r ~ts:(Nowa_util.Clock.now_ns ()) kind arg 0

let length r = if r.enabled then Int.min r.head (r.mask + 1) else 0
let emitted r = r.head
let dropped r = if r.enabled then Int.max 0 (r.head - (r.mask + 1)) else 0

(** Freeze the most recent window of a {e live} ring, without stopping
    or synchronising with the owning writer.  Returns the surviving
    events oldest-first plus the number of candidate slots discarded.

    The reader is an outsider racing the single writer, so this is a
    sampling read, made sound in two steps:

    - the head index is read once up front ([h0]) and once after the
      copy ([h1]); any slot whose logical index lies below [h1 - cap]
      may have been recycled by a write that overlapped the copy, so the
      whole prefix below that bound is discarded wholesale;
    - each surviving slot must satisfy its checksum ([slot_chk], written
      last by {!emit_at2}), so a slot caught mid-write — some words new,
      some old — is detected and dropped along with everything older
      than it (older slots were written earlier; a torn newer slot says
      the writer lapped us).

    The result is a consistent suffix of the ring: every returned event
    is exactly as its writer emitted it.  The writer pays nothing — no
    flag, no fence — and the reader never blocks, so the flight recorder
    can freeze rings from the watchdog thread mid-anomaly. *)
let snapshot ?(window = max_int) r ~worker =
  if not r.enabled then ([||], 0)
  else begin
    let cap = r.mask + 1 in
    let h0 = r.head in
    let n = Int.min (Int.min h0 cap) window in
    let start = h0 - n in
    let ts = Array.make n 0
    and kinds = Array.make n 0
    and args = Array.make n 0
    and args2 = Array.make n 0
    and ok = Array.make n false in
    (* Copy newest-first so the slots most at risk of recycling (the
       oldest) are read as early as possible after [h0]. *)
    for j = n - 1 downto 0 do
      let i = (start + j) land r.mask in
      ts.(j) <- r.ts.(i);
      kinds.(j) <- r.kinds.(i);
      args.(j) <- r.args.(i);
      args2.(j) <- r.args2.(i);
      ok.(j) <-
        r.chk.(i) = slot_chk ts.(j) kinds.(j) args.(j) args2.(j)
        && kinds.(j) >= 0
        && kinds.(j) < Array.length Event.table
    done;
    let h1 = r.head in
    (* First logical index that cannot have been recycled during the
       copy, and above it the first index whose whole suffix passed the
       checksum. *)
    let lo = ref (Int.max start (h1 - cap)) in
    for j = 0 to n - 1 do
      if start + j >= !lo && not ok.(j) then lo := start + j + 1
    done;
    (* A writer that lapped the whole ring during the copy can push the
       recycle bound past [h0]; everything sampled is then stale. *)
    let kept = Int.max 0 (Int.min n (h0 - !lo)) in
    let dropped = n - kept in
    ( Array.init kept (fun j ->
          let j = !lo - start + j in
          {
            Event.ts = ts.(j);
            worker;
            kind = Event.of_int kinds.(j);
            arg = args.(j);
            arg2 = args2.(j);
          }),
      dropped )
  end

(** Drain to an array, oldest surviving event first.  Only call after the
    owning worker has quiesced (post-join); there is no synchronisation. *)
let events r ~worker =
  let n = length r in
  let start = r.head - n in
  Array.init n (fun j ->
      let i = (start + j) land r.mask in
      {
        Event.ts = r.ts.(i);
        worker;
        kind = Event.of_int r.kinds.(i);
        arg = r.args.(i);
        arg2 = r.args2.(i);
      })
