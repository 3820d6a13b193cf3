(* Systematic interleaving exploration with dynamic partial-order
   reduction.  See mcheck.mli for the contract. *)

exception Check_failed of string

(* Every shared access is one atomic action preceded by a scheduling
   point; the effect payload tells the scheduler which cell the action is
   about to touch and whether it writes, which is what the partial-order
   reduction keys on. *)
type access = {
  cell : int;
  writes : bool;
  also : int list;  (* more cells a blocked [relax] waits on *)
}

type op =
  | Step of access option  (* unconditional action *)
  | Wait of (unit -> bool) * access
      (* enabled only while the predicate holds; the resumed action runs
         atomically with the enabledness check (nothing is scheduled in
         between), so [await_cas] really is a blocking CAS *)

type _ Effect.t += Sched : op -> unit Effect.t

module Cell = struct
  type 'a t = { id : int; mutable v : 'a }

  (* Cell identities restart at 0 for every execution.  Spec set-up and
     thread bodies are deterministic, so ids are stable across replays
     of a common schedule prefix — which is all the reduction needs. *)
  let next_id = ref 0
  let reset_ids () = next_id := 0

  (* The thread being advanced, or -1 while spec set-up or the final
     invariant runs.  Outside the scheduler an access is a plain one, so
     a harness can build and judge state through the module under test's
     own functions. *)
  let running = ref (-1)

  (* What each thread has read since its previous [relax]: the cells and,
     per read, a test "does it now hold something else?" — the state
     [relax] blocks on.  A [relax] marks the set [stale]; the thread's
     next read starts a new one, so a loop that reads nothing between
     two relaxes keeps waiting on the set it had. *)
  type reads = {
    mutable cells : int list;
    mutable tests : (unit -> bool) list;
    mutable stale : bool;
  }

  let reads = ref [||]
  let fresh_reads () = { cells = []; tests = []; stale = false }

  let sched op = if !running >= 0 then Effect.perform (Sched op)

  let make v =
    let id = !next_id in
    incr next_id;
    { id; v }

  let read c =
    let i = !running in
    if i < 0 then c.v
    else begin
      Effect.perform (Sched (Step (Some { cell = c.id; writes = false; also = [] })));
      let v = c.v in
      let r = !reads.(i) in
      if r.stale then begin
        r.cells <- [];
        r.tests <- [];
        r.stale <- false
      end;
      r.cells <- c.id :: r.cells;
      r.tests <- (fun () -> c.v != v) :: r.tests;
      v
    end

  let[@inline] writing c = Step (Some { cell = c.id; writes = true; also = [] })

  let write c v =
    sched (writing c);
    c.v <- v

  let cas c expected desired =
    sched (writing c);
    if c.v == expected then begin
      c.v <- desired;
      true
    end
    else false

  let fetch_add c d =
    sched (writing c);
    let v = c.v in
    c.v <- v + d;
    v

  let exchange c v =
    sched (writing c);
    let old = c.v in
    c.v <- v;
    old

  let peek c = c.v

  let would_block () =
    invalid_arg "Mcheck.Cell: blocking operation outside the scheduler"

  let await c pred =
    if !running < 0 then (if not (pred c.v) then would_block ())
    else
      Effect.perform
        (Sched (Wait ((fun () -> pred c.v), { cell = c.id; writes = false; also = [] })));
    c.v

  let await_cas c expected desired =
    if !running < 0 then (if c.v != expected then would_block ())
    else
      Effect.perform
        (Sched
           (Wait
              ((fun () -> c.v == expected), { cell = c.id; writes = true; also = [] })));
    (* Scheduled only in a state where [c.v == expected]; the swap is
       part of the same atomic step. *)
    c.v <- desired
end

(* The spin rule, over read sets: a spin round that re-reads cells
   nobody wrote only repeats a state, so the spinner is disabled until
   one of the cells it read since its previous [relax] would return
   something else.  Sound when everything the round does depends only
   on what it read through [Cell.read]. *)
let relax () =
  let i = !Cell.running in
  if i >= 0 then begin
    let r = !Cell.reads.(i) in
    r.stale <- true;
    match r.cells with
    | [] -> ()
    | cell :: also ->
      let tests = r.tests in
      let changed () = List.exists (fun f -> f ()) tests in
      if not (changed ()) then
        Effect.perform (Sched (Wait (changed, { cell; writes = false; also })))
  end

let check cond msg = if not cond then raise (Check_failed msg)

type outcome = {
  executions : int;
  truncated : int;
  blocked : int;
  complete : bool;
}

type result =
  | Ok of outcome
  | Violation of { schedule : int list; message : string }

type pending = Ready of access option | Waiting of (unit -> bool) * access

type thread_state =
  | Not_started of (unit -> unit)
  | Paused of (unit, unit) Effect.Deep.continuation * pending
  | Finished

(* Advance thread [i] by one atomic action: resume it and run until the
   next scheduling point (or completion / a failed check). *)
let advance states violation i =
  let handler =
    {
      Effect.Deep.retc = (fun () -> states.(i) <- Finished);
      exnc =
        (fun e ->
          states.(i) <- Finished;
          let msg =
            match e with Check_failed m -> m | e -> Printexc.to_string e
          in
          if !violation = None then violation := Some msg);
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Sched op ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let pd =
                  match op with
                  | Step a -> Ready a
                  | Wait (p, a) -> Waiting (p, a)
                in
                states.(i) <- Paused (k, pd))
          | _ -> None);
    }
  in
  Cell.running := i;
  (match states.(i) with
  | Not_started f -> Effect.Deep.match_with f () handler
  | Paused (k, _) ->
    states.(i) <- Finished (* overwritten at the next pause *);
    Effect.Deep.continue k ()
  | Finished -> invalid_arg "Mcheck: scheduled a finished thread");
  Cell.running := -1

let runnable states i =
  match states.(i) with
  | Finished -> false
  | Not_started _ | Paused (_, Ready _) -> true
  | Paused (_, Waiting (p, _)) -> p ()

let next_access states i =
  match states.(i) with
  | Finished | Not_started _ -> None
  | Paused (_, Ready a) -> a
  | Paused (_, Waiting (_, a)) -> Some a

let cells a = a.cell :: a.also

let dependent a b =
  (a.writes || b.writes)
  && (a.cell = b.cell
     ||
     match (a.also, b.also) with
     | [], [] -> false
     | _ -> List.exists (fun c -> List.mem c (cells b)) (cells a))

(* -- live execution state, rebuilt by [restart] ------------------------- *)

type event = { eproc : int; eacc : access option; ecv : int array }

type exec = {
  mutable states : thread_state array;
  mutable invariant : unit -> bool;
  violation : string option ref;
  mutable nthreads : int;
  (* C(p): vector clock of each thread (events that happen-before its
     next transition), plus per-cell write/read clocks for the update. *)
  mutable clocks : int array array;
  cell_writes : (int, int array) Hashtbl.t;
  cell_reads : (int, int array) Hashtbl.t;
  mutable trace : event array;
  mutable tlen : int;
}

let vmax dst src =
  for i = 0 to Array.length dst - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

let make_exec () =
  {
    states = [||];
    invariant = (fun () -> true);
    violation = ref None;
    nthreads = 0;
    clocks = [||];
    cell_writes = Hashtbl.create 64;
    cell_reads = Hashtbl.create 64;
    trace = [||];
    tlen = 0;
  }

let restart x ~max_steps spec =
  Cell.reset_ids ();
  Cell.running := -1;
  let threads, invariant = spec () in
  x.states <- Array.of_list (List.map (fun f -> Not_started f) threads);
  x.invariant <- invariant;
  x.violation := None;
  x.nthreads <- Array.length x.states;
  Cell.reads := Array.init x.nthreads (fun _ -> Cell.fresh_reads ());
  x.clocks <- Array.init x.nthreads (fun _ -> Array.make x.nthreads 0);
  Hashtbl.reset x.cell_writes;
  Hashtbl.reset x.cell_reads;
  if Array.length x.trace < max_steps + 1 then
    x.trace <- Array.make (max_steps + 1) { eproc = -1; eacc = None; ecv = [||] };
  x.tlen <- 0

(* Execute one atomic action of thread [p] and fold it into the
   happens-before state. *)
let step x p =
  let acc = next_access x.states p in
  let acc =
    match x.states.(p) with Not_started _ -> None | _ -> acc
  in
  advance x.states x.violation p;
  let cv = Array.copy x.clocks.(p) in
  (* A blocked [relax] woken by a write reads every cell of its set. *)
  let each a f =
    f a.cell;
    List.iter f a.also
  in
  (match acc with
  | None -> ()
  | Some a ->
    each a (fun cell ->
        match Hashtbl.find_opt x.cell_writes cell with
        | Some w -> vmax cv w
        | None -> ());
    if a.writes then (
      match Hashtbl.find_opt x.cell_reads a.cell with
      | Some r -> vmax cv r
      | None -> ()));
  cv.(p) <- cv.(p) + 1;
  (match acc with
  | None -> ()
  | Some a ->
    if a.writes then begin
      Hashtbl.replace x.cell_writes a.cell (Array.copy cv);
      Hashtbl.remove x.cell_reads a.cell
    end
    else
      each a (fun cell ->
          match Hashtbl.find_opt x.cell_reads cell with
          | Some r -> vmax r cv
          | None -> Hashtbl.replace x.cell_reads cell (Array.copy cv)));
  x.clocks.(p) <- cv;
  x.trace.(x.tlen) <- { eproc = p; eacc = acc; ecv = Array.copy cv };
  x.tlen <- x.tlen + 1

(* Did trace event [e] happen before thread [p]'s next transition? *)
let happens_before x e p = e.ecv.(e.eproc) <= x.clocks.(p).(e.eproc)

(* -- the DFS ------------------------------------------------------------ *)

type node = {
  n_enabled : int;  (* bitmask of threads runnable at this state *)
  n_access : access option array;  (* next access per thread here *)
  n_sleep : int;  (* sleep set at entry *)
  mutable n_backtrack : int;
  mutable n_done : int;
  mutable n_chosen : int;
}

let dummy_node =
  {
    n_enabled = 0;
    n_access = [||];
    n_sleep = 0;
    n_backtrack = 0;
    n_done = 0;
    n_chosen = -1;
  }

exception Found of int list * string
exception Budget

let bit_index b =
  let rec go i = if (b lsr i) land 1 = 1 then i else go (i + 1) in
  go 0

let lowest_bit m = bit_index (m land -m)

let search ~reduce ~max_executions ~max_steps spec =
  let executions = ref 0 and truncated = ref 0 and blocked = ref 0 in
  let bump counter =
    incr counter;
    if !executions + !truncated + !blocked >= max_executions then raise Budget
  in
  let x = make_exec () in
  let path = Array.make (max_steps + 1) dummy_node in
  let schedule_of depth = List.init depth (fun i -> path.(i).n_chosen) in
  let enabled_mask () =
    let m = ref 0 in
    for i = 0 to x.nthreads - 1 do
      if runnable x.states i then m := !m lor (1 lsl i)
    done;
    !m
  in
  (* FG race rule at the node just entered (depth = trace length): for
     every pending access, find the most recent dependent trace event not
     already ordered before it, and plant a backtrack point where that
     event was chosen. *)
  let race_rule depth =
    for p = 0 to x.nthreads - 1 do
      match next_access x.states p with
      | None -> ()
      | Some a ->
        let rec scan i =
          if i >= 0 then begin
            let e = x.trace.(i) in
            let racing =
              e.eproc <> p
              && (match e.eacc with
                 | Some b -> dependent a b
                 | None -> false)
              && not (happens_before x e p)
            in
            if racing then begin
              let nd = path.(i) in
              if (nd.n_enabled lsr p) land 1 = 1 then
                nd.n_backtrack <- nd.n_backtrack lor (1 lsl p)
              else nd.n_backtrack <- nd.n_backtrack lor nd.n_enabled
            end
            else scan (i - 1)
          end
        in
        scan (depth - 1)
    done
  in
  (* Sleep set passed to the child after running [c] from a node: the
     threads already covered at this node whose next action commutes with
     [c]'s. *)
  let child_sleep node c =
    let base = (node.n_sleep lor node.n_done) land lnot (1 lsl c) in
    match node.n_access.(c) with
    | None -> base
    | Some ac ->
      let keep = ref 0 in
      let m = ref base in
      while !m <> 0 do
        let q = lowest_bit !m in
        m := !m land lnot (1 lsl q);
        let indep =
          match node.n_access.(q) with
          | None -> true
          | Some aq -> not (dependent ac aq)
        in
        if indep then keep := !keep lor (1 lsl q)
      done;
      !keep
  in
  let replay_to target =
    restart x ~max_steps spec;
    for j = 0 to target - 1 do
      step x path.(j).n_chosen
    done;
    assert (!(x.violation) = None)
  in
  let rec forward sleep depth =
    match !(x.violation) with
    | Some msg -> raise (Found (schedule_of depth, msg))
    | None ->
      let en = enabled_mask () in
      if en = 0 then begin
        (* Terminal: every thread finished, or the rest are blocked on
           [await] for conditions no one can make true.  Either way the
           final invariant judges the state. *)
        if not (x.invariant ()) then
          raise (Found (schedule_of depth, "final invariant violated"));
        bump executions;
        backtrack depth
      end
      else if depth >= max_steps then begin
        bump truncated;
        backtrack depth
      end
      else begin
        let node =
          {
            n_enabled = en;
            n_access = Array.init x.nthreads (next_access x.states);
            n_sleep = sleep;
            n_backtrack = 0;
            n_done = 0;
            n_chosen = -1;
          }
        in
        path.(depth) <- node;
        if reduce then race_rule depth;
        let avail = en land lnot sleep in
        if avail = 0 then begin
          (* Every enabled thread is asleep: this execution is a
             reordering of one already explored. *)
          bump blocked;
          backtrack depth
        end
        else begin
          node.n_backtrack <- node.n_backtrack lor (1 lsl lowest_bit avail);
          if not reduce then node.n_backtrack <- en;
          expand node depth
        end
      end
  and expand node depth =
    let cand =
      node.n_backtrack land node.n_enabled
      land lnot (node.n_done lor node.n_sleep)
    in
    if cand = 0 then backtrack depth
    else begin
      let c = lowest_bit cand in
      node.n_done <- node.n_done lor (1 lsl c);
      node.n_chosen <- c;
      let sleep = if reduce then child_sleep node c else 0 in
      step x c;
      forward sleep (depth + 1)
    end
  and backtrack depth =
    let rec up i =
      if i < 0 then () (* exploration complete *)
      else begin
        let nd = path.(i) in
        let cand =
          nd.n_backtrack land nd.n_enabled
          land lnot (nd.n_done lor nd.n_sleep)
        in
        if cand = 0 then up (i - 1)
        else begin
          replay_to i;
          expand nd i
        end
      end
    in
    up (depth - 1)
  in
  restart x ~max_steps spec;
  match forward 0 0 with
  | () ->
    Ok
      {
        executions = !executions;
        truncated = !truncated;
        blocked = !blocked;
        complete = !truncated = 0;
      }
  | exception Budget ->
    Ok
      {
        executions = !executions;
        truncated = !truncated;
        blocked = !blocked;
        complete = false;
      }
  | exception Found (schedule, message) -> Violation { schedule; message }

let explore ?(max_executions = 200_000) ?(max_steps = 400) spec =
  search ~reduce:true ~max_executions ~max_steps spec

let explore_naive ?(max_executions = 200_000) ?(max_steps = 400) spec =
  search ~reduce:false ~max_executions ~max_steps spec

(* -- single-schedule replay -------------------------------------------- *)

let run_schedule ?(max_steps = 400) spec schedule =
  let x = make_exec () in
  let steps = List.length schedule in
  restart x ~max_steps:(max 1 (max steps max_steps)) spec;
  let rec go taken = function
    | [] -> None
    | p :: rest -> (
      if p < 0 || p >= x.nthreads then
        invalid_arg "Mcheck.run_schedule: thread index out of range";
      if not (runnable x.states p) then
        invalid_arg "Mcheck.run_schedule: schedule stale (thread not runnable)";
      step x p;
      match !(x.violation) with
      | Some msg -> Some (List.rev (p :: taken), msg)
      | None -> go (p :: taken) rest)
  in
  match go [] schedule with
  | Some (schedule, message) -> Violation { schedule; message }
  | None ->
    let any_runnable = ref false in
    for i = 0 to x.nthreads - 1 do
      if runnable x.states i then any_runnable := true
    done;
    if (not !any_runnable) && not (x.invariant ()) then
      Violation { schedule; message = "final invariant violated" }
    else
      Ok
        {
          executions = 1;
          truncated = 0;
          blocked = 0;
          complete = false;
        }

(* -- seeded random walk with PCT-style priorities ----------------------- *)

let explore_random ?(seed = 1) ?(max_schedules = 1_000) ?(max_steps = 400)
    ?(change_points = 3) spec =
  let rng = Nowa_util.Xoshiro.make ~seed in
  let x = make_exec () in
  let executions = ref 0 and truncated = ref 0 in
  let result = ref None in
  (* Change points are only useful if they land inside the run, so they
     are sampled within the longest schedule observed so far (PCT's [k]
     parameter, learned on the fly) rather than within [max_steps]. *)
  let horizon = ref 16 in
  (try
     for _ = 1 to max_schedules do
       restart x ~max_steps spec;
       let n = x.nthreads in
       (* Random priority permutation; change points demote the running
          thread below everyone, as in PCT. *)
       let prio = Array.init n (fun i -> i) in
       for i = n - 1 downto 1 do
         let j = Nowa_util.Xoshiro.int rng (i + 1) in
         let t = prio.(i) in
         prio.(i) <- prio.(j);
         prio.(j) <- t
       done;
       let floor = ref (-1) in
       let changes = Hashtbl.create 8 in
       for _ = 1 to change_points do
         Hashtbl.replace changes (Nowa_util.Xoshiro.int rng (max 1 !horizon)) ()
       done;
       let sched = ref [] in
       let stop = ref false in
       let depth = ref 0 in
       while not !stop do
         let best = ref (-1) in
         for i = 0 to n - 1 do
           if
             runnable x.states i
             && (!best < 0 || prio.(i) > prio.(!best))
           then best := i
         done;
         if !best < 0 then begin
           incr executions;
           if not (x.invariant ()) then begin
             result :=
               Some
                 (Violation
                    {
                      schedule = List.rev !sched;
                      message = "final invariant violated";
                    });
             raise Exit
           end;
           stop := true
         end
         else if !depth >= max_steps then begin
           incr truncated;
           stop := true
         end
         else begin
           let p = !best in
           if Hashtbl.mem changes !depth then begin
             prio.(p) <- !floor;
             decr floor
           end;
           step x p;
           sched := p :: !sched;
           incr depth;
           match !(x.violation) with
           | Some message ->
             result :=
               Some (Violation { schedule = List.rev !sched; message });
             raise Exit
           | None -> ()
         end
       done;
       if !depth > !horizon then horizon := !depth
     done
   with Exit -> ());
  match !result with
  | Some r -> r
  | None ->
    Ok
      {
        executions = !executions;
        truncated = !truncated;
        blocked = 0;
        complete = false (* a sample, never a proof *);
      }
