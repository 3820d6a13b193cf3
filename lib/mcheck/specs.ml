(* Harnesses over the shipped coordination code.  [Chase_lev],
   [The_queue], [Abp], [Locked_deque], [Inject_queue], [Sleepers],
   [Wait_free_counter] and [Lock_counter] below are not transcriptions:
   the dune rules compile the files under lib/ a second time against
   traced.ml, so each harness drives the code that ships.  Only
   scenarios, oracles and deliberately broken caller-side controls are
   written here; [Inject_queue_no_cas] is a dune-generated mutant of the
   shipped queue. *)

module Cell = Mcheck.Cell

type spec = unit -> (unit -> unit) list * (unit -> bool)

let check = Mcheck.check

(* -- work-stealing deques --------------------------------------------- *)

(* Consumption log shared by a spec's threads: plain refs are fine
   because each slot has a single writer. *)
type consumption = { mutable taken : int list }

let conservation ~pushes ~logs ~size_at_end () =
  let all = List.concat_map (fun l -> l.taken) logs in
  let sorted = List.sort compare all in
  let distinct = List.sort_uniq compare all in
  List.length sorted = List.length distinct
  && List.for_all (fun v -> v >= 1 && v <= pushes) all
  && List.length all + size_at_end () = pushes

module Int_elt = struct
  type t = int

  let dummy = 0
end

let maker : _ -> (module Nowa_deque.Ws_deque_intf.MAKER) = function
  | `Chase_lev -> (module Chase_lev.Make)
  | `The_queue -> (module The_queue.Make)
  | `Abp -> (module Abp.Make)
  | `Locked -> (module Locked_deque.Make)

(* The owner pushes 1..pushes then pops [pops] times; each thief makes
   one [steal], or one [steal_batch ~max:batch].  Every element must be
   consumed exactly once or still be in the deque by its own [size]. *)
let deque_spec ?capacity ?batch ~pushes ~pops ~thieves kind () =
  let module Make = (val maker kind) in
  let module Q = Make (Int_elt) in
  let q = Q.create ?capacity () in
  let owner_log = { taken = [] } in
  let thief_logs = List.init thieves (fun _ -> { taken = [] }) in
  let owner () =
    for v = 1 to pushes do
      Q.push_bottom q v
    done;
    for _ = 1 to pops do
      let v = Q.pop q in
      if v <> Int_elt.dummy then owner_log.taken <- v :: owner_log.taken
    done
  in
  let thief log () =
    log.taken <-
      (match batch with
      | None -> Option.to_list (Q.steal q ~on_commit:ignore)
      | Some max -> Q.steal_batch q ~max ~on_commit:ignore)
  in
  ( owner :: List.map thief thief_logs,
    conservation ~pushes ~logs:(owner_log :: thief_logs) ~size_at_end:(fun () ->
        Q.size q) )

(* -- strand counters ---------------------------------------------------
   One frame, one spawn: the worker pushes the continuation, runs the
   child inline and pops; a thief races for the continuation.  Whichever
   control flow ends up holding the continuation is the main path and
   reaches the explicit sync; the other performs the implicit sync
   (Figure 5 of the paper).  [passes] counts executions of the code past
   the sync point; correctness = the sync is passed exactly once, and
   never while the child is still running. *)

type frame_obs = { mutable passes : int }

let counter_scenario ~note_steal ~note_resume ~main_sync ~joiner () =
  let avail = Cell.make false in
  let child_done = Cell.make false in
  let obs = { passes = 0 } in
  let pass () =
    check (Cell.peek child_done) "passed the sync point while the child runs";
    obs.passes <- obs.passes + 1
  in
  let worker () =
    Cell.write avail true (* pushBottom of the continuation *);
    Cell.write child_done true (* the spawned child runs and returns *);
    if Cell.cas avail true false then main_sync ~pass () (* not stolen *)
    else joiner ~pass () (* stolen: implicit sync *)
  in
  let thief () =
    if Cell.cas avail true false then begin
      note_steal ();
      note_resume ();
      main_sync ~pass ()
    end
  in
  ([ worker; thief ], fun () -> obs.passes = 1)

(* The hazardous protocol of Figure 6: counting is per-operation atomic,
   but the sync point checks the counter BEFORE publishing the
   suspension, so a joiner can decrement to zero in between and the
   wake-up is lost (the sync point is never passed — the "outcome of the
   program execution is undefined" of Section III-C). *)
let naive_counter_spec () =
  let count = Cell.make 0 in
  let suspended = Cell.make false in
  counter_scenario
    ~note_steal:(fun () -> ignore (Cell.fetch_add count 1))
    ~note_resume:(fun () -> ())
    ~main_sync:(fun ~pass () ->
      if Cell.read count = 0 then pass ()
      else
        (* Racy: the check above and this publication are not atomic. *)
        Cell.write suspended true)
    ~joiner:(fun ~pass () ->
      let v = Cell.fetch_add count (-1) in
      if v = 1 && Cell.read suspended then pass ())
    ()

(* The shipped counters in [Engine.sync]'s caller order: a never-forked
   frame passes, a zero [pending_hint] takes the fused path (whose
   [reach_sync] must succeed), anything else publishes the suspended
   continuation before [reach_sync].  The zero observer takes the
   continuation back. *)
let join_counter_spec kind () =
  let module C =
    (val match kind with
         | `Wait_free ->
           (module Wait_free_counter : Nowa_sync.Counter_intf.JOIN_COUNTER)
         | `Lock -> (module Lock_counter))
  in
  let c = C.create () in
  let suspended = Cell.make false in
  let take_back who =
    check (Cell.cas suspended true false)
      (who ^ " observed zero but the continuation was gone")
  in
  counter_scenario
    ~note_steal:(fun () -> C.note_steal c)
    ~note_resume:(fun () -> C.note_resume c)
    ~main_sync:(fun ~pass () ->
      if not (C.forked c) then pass ()
      else if C.pending_hint c = 0 then begin
        check (C.reach_sync c) "fused sync found strands outstanding";
        pass ()
      end
      else begin
        Cell.write suspended true;
        if C.reach_sync c then begin
          take_back "sync";
          pass ()
        end
      end)
    ~joiner:(fun ~pass () ->
      if C.child_joined c then begin
        take_back "join";
        pass ()
      end)
    ()

(* -- the sleeper registry (lib/runtime/sleepers.ml) ---------------------
   A worker still blocked in [Sleepers.park] at the end of a run is a
   worker asleep forever. *)

(* [Shell.park_round]'s caller order: announce, the pre-park [sweep],
   then cancel on a hit or at shutdown, else park.  [true] iff the sweep
   found work. *)
let park_round s ~worker ~sweep ~finished =
  ignore (Sleepers.announce s ~worker);
  if sweep () then begin
    ignore (Sleepers.cancel s ~worker);
    true
  end
  else begin
    if finished () then ignore (Sleepers.cancel s ~worker)
    else Sleepers.park s ~worker;
    false
  end

let never () = false

let sleeper_spec ?(variant = `Good) ~workers ~tasks () =
  let s = Sleepers.create ~workers in
  let work = Cell.make 0 in
  let awake = Array.make workers false in
  let rec try_take () =
    let v = Cell.read work in
    v > 0 && (Cell.cas work v (v - 1) || try_take ())
  in
  let worker w () =
    (* Exits awake on a task or when its budget runs out. *)
    let rec run budget =
      if budget > 0 && not (try_take ()) then
        match variant with
        | `Good ->
          if not (park_round s ~worker:w ~sweep:try_take ~finished:never) then
            run (budget - 1)
        | `Check_before_announce ->
          (* the classic lost wake-up: re-check BEFORE announcing, so a
             push+wake landing in between sees an empty mask *)
          if Cell.read work > 0 then run (budget - 1)
          else begin
            ignore (Sleepers.announce s ~worker:w);
            Sleepers.park s ~worker:w;
            run (budget - 1)
          end
    in
    run 3;
    awake.(w) <- true
  in
  let spawner () =
    for _ = 1 to tasks do
      ignore (Cell.fetch_add work 1);
      (* the push happens before the mask load, as in the engines *)
      ignore (Sleepers.wake_one s)
    done
  in
  let threads = List.init workers worker @ [ spawner ] in
  (* No lost wake-up: pending work implies some worker is awake (done
     running, hence sweeping again in the real runtime) — never every
     worker parked without a token. *)
  (threads, fun () -> Cell.peek work = 0 || Array.exists Fun.id awake)

let tokens s ~worker = s.Sleepers.slots.(worker).Sleepers.tokens

(* Wake-vs-cancel token race: one worker announces then cancels while
   wakers race [wake_one].  Exactly one side must win the bit, at most
   one token may be minted, and the epoch counts the successful wake. *)
let sleeper_wake_cancel_spec ~wakers () =
  let s = Sleepers.create ~workers:1 in
  let cancelled = ref false in
  let claimed = Array.make wakers false in
  let worker () =
    ignore (Sleepers.announce s ~worker:0);
    if Sleepers.cancel s ~worker:0 then cancelled := true
    else (* a waker claimed us: its token must arrive; consume it *)
      Sleepers.park s ~worker:0
  in
  let waker i () = claimed.(i) <- Sleepers.wake_one s in
  let invariant () =
    let claims = List.length (List.filter Fun.id (Array.to_list claimed)) in
    claims = (if !cancelled then 0 else 1)
    && tokens s ~worker:0 = 0
    && Sleepers.epoch s = claims
    && Sleepers.sleepers s = 0
    && Sleepers.wake_stamp s ~worker:0 = 1
    && not (Sleepers.waiting s ~worker:0)
  in
  (worker :: List.init wakers waker, invariant)

(* Shutdown: workers run a park round with nothing to sweep while a
   closer sets [finished] and then [wake_all]s.  No worker may stay
   parked past shutdown. *)
let sleeper_shutdown_spec ~workers () =
  let s = Sleepers.create ~workers in
  let finished = Cell.make false in
  let done_ = Array.make workers false in
  let worker w () =
    ignore
      (park_round s ~worker:w ~sweep:never ~finished:(fun () -> Cell.read finished));
    done_.(w) <- true
  in
  let closer () =
    Cell.write finished true;
    Sleepers.wake_all s
  in
  (List.init workers worker @ [ closer ], fun () -> Array.for_all Fun.id done_)

(* -- KV shard combiner: claim/drain/release/re-check (lib/server/kv.ml) --
   A shard's mailbox is a Treiber-style list; whoever CASes the
   combining flag drains and applies.  The protocol's load-bearing
   fence is the mailbox re-check AFTER releasing the flag: a message
   pushed between the combiner's last drain and the release would
   otherwise be stranded, because its pusher saw [combining = true] and
   walked away.  [`No_recheck] omits exactly that fence and the checker
   exhibits the lost operation.

   [fast] claimants model [Kv.exec]'s idle-shard path: seeing the
   mailbox empty, a claimant CASes the flag itself, applies its own op
   and then runs the same drain/release/re-check as every combiner; if
   the mailbox holds mail or the CAS fails, it pushes like anyone else.
   [`Fast_no_recheck] drops the re-check from the fast claimant's own
   release only, so a pusher that saw its flag held is stranded. *)

let kv_combiner_spec ?(variant = `Good) ~fast ~pushers () =
  let mail = Cell.make [] in
  let combining = Cell.make false in
  let store = Cell.make 0 in
  let apply () =
    let v = Cell.read store in
    Cell.write store (v + 1)
  in
  let push v =
    let rec go () =
      let cur = Cell.read mail in
      if not (Cell.cas mail cur (v :: cur)) then go ()
    in
    go ()
  in
  let drain () =
    let rec go () =
      let batch = Cell.read mail in
      if batch <> [] then begin
        if Cell.cas mail batch [] then List.iter (fun _ -> apply ()) batch;
        go ()
      end
    in
    go ()
  in
  (* Drain, release and (unless [recheck] is off) re-check, as in
     combine; the re-check's own claim is a full one. *)
  let rec release ~recheck () =
    drain ();
    Cell.write combining false;
    if recheck && Cell.read mail <> [] then combine ()
  (* One claim attempt, as in try_combine: failure means the current
     holder is responsible (and its own release re-check is what makes
     that responsibility real). *)
  and combine () =
    if Cell.cas combining false true then
      release ~recheck:(variant <> `No_recheck) ()
  in
  let pusher i () =
    push (i + 1);
    combine ()
  in
  let fast_claimant i () =
    if Cell.read mail = [] && Cell.cas combining false true then begin
      apply ();
      release ~recheck:(variant <> `Fast_no_recheck) ()
    end
    else pusher i ()
  in
  let threads =
    List.init pushers pusher
    @ List.init fast (fun i -> fast_claimant (pushers + i))
  in
  let invariant () = Cell.peek store = pushers + fast && Cell.peek mail = [] in
  (threads, invariant)

(* -- KV bucket handoff: Borrow/Grant/Return vs a concurrent reader -----
   Two shards, one bucket each (modelled as plain int cells since the
   combiner discipline is what grants exclusivity).  A client txn homed
   at shard 0 atomically increments both buckets: shard 0 borrows
   shard 1's bucket, shard 1 detaches it (grant), shard 0 applies and
   returns it.  A second client's single-key increment on shard 1 races
   the loan window; the correct protocol defers it until the bucket
   comes home.  [`No_defer] applies it immediately into the detached
   bucket's home slot — the increment lands on state the grant already
   copied out and the Return overwrites it: a lost update the checker
   finds.  Invariant additionally rules out double-applies via an
   apply-count check. *)

type handoff_msg =
  | Hop  (* client C: increment shard 1's bucket *)
  | Htxn  (* client B: increment both buckets atomically *)
  | Hborrow
  | Hgrant of int  (* detached bucket value travelling to shard 0 *)
  | Hreturn of int  (* updated bucket value travelling home *)

let kv_handoff_spec ?(variant = `Good) () =
  let mail0 = Cell.make [] and mail1 = Cell.make [] in
  let store0 = Cell.make 0 and store1 = Cell.make 0 in
  let loaned1 = Cell.make false in
  let defer1 = Cell.make [] in
  let res_b = Cell.make false and res_c = Cell.make false in
  let applied_c = Cell.make 0 in
  let push mail m =
    let rec go () =
      let cur = Cell.read mail in
      if not (Cell.cas mail cur (m :: cur)) then go ()
    in
    go ()
  in
  (* Dedicated server thread per shard: combiner exclusivity is by
     construction here (kv_combiner_spec checks the claim protocol);
     this spec isolates the handoff races. *)
  let serve mail expected handle () =
    let handled = ref 0 in
    while !handled < expected do
      let batch =
        let rec take () =
          let l = Cell.await mail (fun l -> l <> []) in
          if Cell.cas mail l [] then l else take ()
        in
        take ()
      in
      List.iter handle (List.rev batch);
      handled := !handled + List.length batch
    done
  in
  let apply_c () =
    let v = Cell.read store1 in
    Cell.write store1 (v + 1);
    check (Cell.fetch_add applied_c 1 = 0) "reader op applied twice";
    Cell.write res_c true
  in
  let handle1 = function
    | Hop ->
      if Cell.read loaned1 then begin
        match variant with
        | `Good -> push defer1 Hop (* wait for the bucket to come home *)
        | `No_defer -> apply_c () (* bug: mutate the detached bucket's slot *)
      end
      else apply_c ()
    | Hborrow ->
      check (not (Cell.read loaned1)) "double loan";
      Cell.write loaned1 true;
      let v = Cell.read store1 in
      push mail0 (Hgrant v)
    | Hreturn v ->
      Cell.write store1 v;
      Cell.write loaned1 false;
      let deferred = Cell.read defer1 in
      Cell.write defer1 [];
      List.iter (fun _ -> apply_c ()) deferred
    | Htxn | Hgrant _ -> check false "wrong shard"
  in
  let handle0 = function
    | Htxn -> push mail1 Hborrow
    | Hgrant v ->
      (* All buckets held: the one-shot atomic apply. *)
      let v0 = Cell.read store0 in
      Cell.write store0 (v0 + 1);
      Cell.write res_b true;
      push mail1 (Hreturn (v + 1))
    | Hop | Hborrow | Hreturn _ -> check false "wrong shard"
  in
  let client_b () =
    push mail0 Htxn;
    ignore (Cell.await res_b (fun r -> r))
  in
  let client_c () =
    push mail1 Hop;
    ignore (Cell.await res_c (fun r -> r))
  in
  let threads =
    [ client_b; client_c; serve mail0 2 handle0; serve mail1 3 handle1 ]
  in
  let invariant () =
    Cell.peek store0 = 1
    && Cell.peek store1 = 2
    && Cell.peek res_b && Cell.peek res_c
    && (not (Cell.peek loaned1))
    && Cell.peek defer1 = []
    && Cell.peek mail0 = []
    && Cell.peek mail1 = []
  in
  (threads, invariant)

(* -- KV combiner release with parked home txns (lib/server/kv.ml) ------
   [retry_waiting] can itself complete a transaction, and that
   completion reattaches buckets — setting the shard's [recheck] flag
   again after the drain loop already cleared it.  A second txn parked
   on the just-reattached bucket, filtered earlier in the same retry
   pass, then has no mailbox message left to wake the combiner for it:
   [try_combine] only enters on non-empty mail.  The release must
   therefore loop until BOTH the mailbox is empty and [recheck] is
   clear.  [`No_recheck_loop] releases on an empty mailbox alone — the
   checker exhibits the stranded txn (C never completes).

   Model: one shard whose combiner-private state is pre-loaded with the
   adversarial configuration — txn A holds bucket 0 and is parked on
   bucket 1 (on loan to a remote txn whose Return is inbound); txn C is
   parked on bucket 0; the waiting list visits C before A.  A
   bystander client D pushes an independent single-key op so the claim
   race and a rescue-by-later-traffic schedule are both explored: the
   violating schedules are exactly those where D's combine runs before
   A's completion re-sets [recheck]. *)

type parked_msg = Preturn | Pop_d

let kv_parked_retry_spec ?(variant = `Good) () =
  let mail = Cell.make [] in
  let combining = Cell.make false in
  (* Combiner-private shard state (protected by [combining]). *)
  let b0_loaned = Cell.make true in  (* held by home txn A *)
  let b1_loaned = Cell.make true in  (* on loan; Return inbound *)
  let waiting = Cell.make [ `C; `A ] in
  let recheck = Cell.make false in
  let done_a = Cell.make false in
  let done_c = Cell.make false in
  let done_d = Cell.make false in
  let push m =
    let rec go () =
      let cur = Cell.read mail in
      if not (Cell.cas mail cur (m :: cur)) then go ()
    in
    go ()
  in
  let handle = function
    | Preturn ->
      (* reattach bucket 1 *)
      Cell.write b1_loaned false;
      Cell.write recheck true
    | Pop_d -> Cell.write done_d true (* single-key op on a free bucket *)
  in
  (* retry_waiting: left-to-right filter over the parked txns.  A's
     completion applies against bucket 1 and reattaches bucket 0 —
     the reattach that re-sets [recheck] mid-pass. *)
  let retry () =
    let step kept = function
      | `A ->
        if Cell.read b1_loaned then `A :: kept
        else begin
          Cell.write b0_loaned false;
          Cell.write recheck true;
          Cell.write done_a true;
          kept
        end
      | `C ->
        if Cell.read b0_loaned then `C :: kept
        else begin
          Cell.write done_c true;
          kept
        end
    in
    Cell.write waiting (List.rev (List.fold_left step [] (Cell.read waiting)))
  in
  let rec combine () =
    if Cell.cas combining false true then loop ()
  and loop () =
    (let rec drain () =
       let batch = Cell.read mail in
       if batch <> [] then
         if Cell.cas mail batch [] then List.iter handle (List.rev batch)
         else drain ()
     in
     drain ());
    if Cell.read recheck then begin
      Cell.write recheck false;
      retry ()
    end;
    let again =
      match variant with
      | `Good -> Cell.read recheck || Cell.read mail <> []
      | `No_recheck_loop -> Cell.read mail <> []
    in
    if again then loop ()
    else begin
      Cell.write combining false;
      if Cell.read mail <> [] then combine ()
    end
  in
  let threads =
    [
      (fun () ->
        push Preturn;
        combine ());
      (fun () ->
        push Pop_d;
        combine ());
    ]
  in
  let invariant () =
    Cell.peek done_a && Cell.peek done_c && Cell.peek done_d
    && (not (Cell.peek b0_loaned))
    && (not (Cell.peek b1_loaned))
    && Cell.peek waiting = []
    && (not (Cell.peek recheck))
    && Cell.peek mail = []
  in
  (threads, invariant)

(* The watchdog's parked-vs-stalled classification across the park/wake
   token race (lib/runtime/health.ml Monitor.scan_once against the real
   registry).  The worker has announced and is inside its pre-park
   sweep, which will find nothing: it parks, and once woken it beats.  A
   waker runs [wake_one]; a monitor samples {beat, stamp, bit, waiting}
   per scan and counts a worker stalled after two consecutive quiet
   unparked scans.

   The hazardous window is after the waker claimed the bit but before
   the worker has beaten again: the bit says "not parked" while the
   worker is about to block, or blocked, with a wake in flight.  The
   check asserts a stall is only ever declared with no parked
   indication and no token in flight; [`No_waiting_flag] classifies
   parked by the mask bit alone, and the checker exhibits the false
   stall. *)
let watchdog_park_spec ?(variant = `Good) ~scans () =
  let s = Sleepers.create ~workers:1 in
  ignore (Sleepers.announce s ~worker:0);
  let beat = Cell.make 0 in
  let done_ = ref false in
  let worker () =
    Sleepers.park s ~worker:0;
    ignore (Cell.fetch_add beat 1);
    done_ := true
  in
  let waker () = ignore (Sleepers.wake_one s) in
  let monitor () =
    let prev_beat = ref (Cell.read beat) in
    let prev_stamp = ref (Sleepers.wake_stamp s ~worker:0) in
    let quiet = ref 0 in
    for _ = 1 to scans do
      let b = Cell.read beat in
      let stamp = Sleepers.wake_stamp s ~worker:0 in
      let announced = Sleepers.announced s ~worker:0 in
      let waiting = Sleepers.waiting s ~worker:0 in
      let parked =
        match variant with
        | `Good -> announced || waiting
        | `No_waiting_flag -> announced
      in
      let progressed = b <> !prev_beat || stamp <> !prev_stamp in
      prev_beat := b;
      prev_stamp := stamp;
      if parked || progressed then quiet := 0
      else begin
        incr quiet;
        if !quiet >= 2 then
          (* Declaring a stall: by now the worker must be genuinely
             awake and unparked -- no mask bit, no waiting flag, no
             wake token still in flight. *)
          check
            ((not announced) && (not waiting) && tokens s ~worker:0 = 0)
            "parked worker flagged stalled during the wake race"
      end
    done
  in
  (* Liveness framing: the wake always lands, so the worker must have
     retired with the token consumed and the waiting flag down. *)
  let invariant () =
    !done_ && tokens s ~worker:0 = 0 && not (Sleepers.waiting s ~worker:0)
  in
  ([ worker; waker; monitor ], invariant)

(* -- cross-pool spill-over: routed roots vs the park protocol ----------
   A [spawn_unit_on] producer pushes a routed root into a target pool's
   real [Inject_queue], then runs [wake_routed] on that pool's registry.
   The pool's only home worker races it through [Shell.park_round],
   whose sweep pops the queue as [Shell.try_inject] does; a foreign
   spill thief pops the same queue and retires awake, as a
   [Config.spill_over] worker from another pool would.

   Safety: the routed root executes exactly once, whichever side wins.
   Liveness: it is never stranded in the queue with the home worker
   parked — the lost task the pre-park sweep closes.  [`No_final_sweep]
   parks after its one failed pop with no sweep; with the thief's probes
   exhausted before the push, the producer's wake finds an empty mask
   and the checker exhibits the stranded routed root. *)
let spillover_spec ?(variant = `Good) () =
  let s = Sleepers.create ~workers:1 in
  let inject = Inject_queue.create () in
  let filled = Cell.make 0 (* remote-promise fill count *) in
  let obs = { passes = 0 } in
  let execute () =
    check (Cell.fetch_add filled 1 = 0) "routed root executed twice";
    obs.passes <- obs.passes + 1
  in
  let take () = Option.is_some (Inject_queue.pop inject) in
  let home () =
    let rec idle budget =
      if budget = 0 then ()
      else if take () then execute ()
      else
        match variant with
        | `Good ->
          if park_round s ~worker:0 ~sweep:take ~finished:never then execute ()
          else idle (budget - 1)
        | `No_final_sweep ->
          ignore (Sleepers.announce s ~worker:0);
          Sleepers.park s ~worker:0;
          idle (budget - 1)
    in
    idle 3
  in
  let producer () =
    Inject_queue.push inject ();
    ignore (Sleepers.wake_one s)
  in
  let spill_thief () =
    let rec probe budget =
      if budget > 0 then if take () then execute () else probe (budget - 1)
    in
    probe 2
  in
  let invariant () = obs.passes = 1 && Inject_queue.length inject = 0 in
  ([ home; producer; spill_thief ], invariant)

(* -- the routed queue on its own -----------------------------------------
   Two producers push two items each (producer [p]'s [i]th item is
   [2p + i + 1]); the pool's home worker pops twice and a spill thief
   [thief_pops] times.  A pop's head CAS and the log append below it have no
   scheduling point between them, so [log] is the order in which pops
   took effect.  Oracles: no pop returns a cleared slot (the unit word,
   0 as an int) or an item twice; the popped items and the ones still
   queued are each item exactly once; and each producer's items leave
   in the order it pushed them. *)

module type FIFO = sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> 'a -> unit
  val pop : 'a t -> 'a option
end

let inject_queue_spec ?(variant = `Good) ~thief_pops () =
  let (module Q : FIFO) =
    match variant with
    | `Good -> (module Inject_queue)
    | `No_head_cas -> (module Inject_queue_no_cas)
  in
  let q = Q.create () in
  let log = ref [] in
  let producer p () =
    Q.push q ((2 * p) + 1);
    Q.push q ((2 * p) + 2)
  in
  let consumer pops () =
    for _ = 1 to pops do
      match Q.pop q with
      | Some v ->
        check (v >= 1 && v <= 4 && not (List.mem v !log)) "item popped twice or cleared";
        log := v :: !log
      | None -> ()
    done
  in
  let invariant () =
    let rec drain acc = match Q.pop q with Some v -> drain (v :: acc) | None -> acc in
    let order = List.rev (drain !log) in
    let ordered p =
      let mine = List.filter (fun v -> (v - 1) / 2 = p) order in
      mine = [ (2 * p) + 1; (2 * p) + 2 ]
    in
    List.sort compare order = [ 1; 2; 3; 4 ] && ordered 0 && ordered 1
  in
  ([ producer 0; producer 1; consumer 2; consumer thief_pops ], invariant)
