(* Harnesses over the shipped coordination code.  [Chase_lev],
   [The_queue], [Abp], [Locked_deque], [Inject_queue], [Sleepers],
   [Wait_free_counter], [Lock_counter] and [Kv] below are not
   transcriptions: the dune rules compile the files under lib/ a second
   time against traced.ml, so each harness drives the code that ships.
   Only scenarios, oracles and deliberately broken caller-side controls
   are written here; [Inject_queue_no_cas], [Kv_no_recheck] and
   [Kv_unordered] are dune-generated mutants of the shipped code. *)

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

(* -- the shipped KV store (lib/server/kv.ml) --------------------------
   [Kv_specs] is the harness; the dune rules compile it once per copy
   of the store, so each variant runs the same scenario on the shipped
   code or on one of its generated mutants. *)

let kv_spec ?(variant = `Good) scenario =
  match variant with
  | `Good -> Kv_specs.spec scenario
  | `No_recheck -> Kv_specs_no_recheck.spec scenario
  | `Unordered -> Kv_specs_unordered.spec scenario

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
