(** Strand-level analysis over a drained trace: the paper's "where does
    scheduler time go" evidence (Figure 8 style) regenerated from our own
    runs instead of end-of-run aggregate counters.

    Definitions:
    - {e busy} time is the union of task slices (task-start .. task-end);
      everything else inside the trace span is {e scheduler} time —
      stealing, backoff, idling at syncs.  Slices cut by the ring's
      truncation (a start overwritten after the ring wrapped, or an end
      past a live snapshot's edge) are clamped to the surviving window
      rather than discarded, so a long serial task that laps its ring
      still registers as busy time.
    - a {e steal latency} sample is the time from a worker going idle
      (its last task-end, or its first steal-attempt if it never ran a
      task yet) to its next successful steal-commit: the "how long does
      work take to arrive" tail the aggregate counters cannot show.
    - an {e idle gap} is task-end to the next task-start on the same
      worker — convoying and serial-tail stretches show up here. *)

type worker_summary = {
  worker : int;
  events : int;
  dropped : int;
  counts : int array;
      (** events of each kind, indexed by {!Event.to_int}; read through
          {!count} *)
  parked_ns : int;  (** time spent blocked on the worker's condvar *)
  busy_ns : int;
  sched_ns : int;
  utilization : float;  (** busy / span of the whole trace *)
  steal_latencies_ns : float list;
  idle_gaps_ns : float list;
}

type t = {
  span_ns : int;  (** first event to last event across all workers *)
  total_events : int;
  total_dropped : int;
  workers : worker_summary array;
  utilization : float;  (** mean worker utilization *)
  busy_ns : int;
  sched_ns : int;
  steal_p50_ns : float;
  steal_p95_ns : float;
  steal_p99_ns : float;
  idle_histogram : (string * int) list;  (** log-decade idle-gap buckets *)
}

(* Events of kind [k] on the worker, a task whose start the ring
   overwrote included. *)
let count w k = w.counts.(Event.to_int k)

let hist_buckets =
  [
    ("<1us", 1_000.0);
    ("1-10us", 10_000.0);
    ("10-100us", 100_000.0);
    ("100us-1ms", 1_000_000.0);
    ("1-10ms", 10_000_000.0);
    (">10ms", infinity);
  ]

let histogram gaps =
  let counts = Array.make (List.length hist_buckets) 0 in
  List.iter
    (fun g ->
      let rec place i = function
        | [] -> ()
        | (_, hi) :: rest -> if g < hi then counts.(i) <- counts.(i) + 1 else place (i + 1) rest
      in
      place 0 hist_buckets)
    gaps;
  List.mapi (fun i (label, _) -> (label, counts.(i))) hist_buckets

let summarize_worker ~span_ns ~t0 ~dropped w (evs : Event.t array) =
  ignore t0;
  let nev = Array.length evs in
  let first_ts = if nev > 0 then evs.(0).Event.ts else 0 in
  let last_ts = if nev > 0 then evs.(nev - 1).Event.ts else 0 in
  let counts = Array.make (Array.length Event.table) 0 in
  let bump k = counts.(Event.to_int k) <- counts.(Event.to_int k) + 1 in
  let parked = ref 0 in
  let busy = ref 0 in
  (* Open task slices: a task helped at a help-first taskwait nests
     inside its waiter's, and only the outermost one delimits busy
     time. *)
  let depth = ref 0 in
  let open_start = ref None in
  let park_since = ref None in
  let idle_since = ref None in
  let latencies = ref [] and gaps = ref [] in
  Array.iter
    (fun e ->
      bump e.Event.kind;
      match e.Event.kind with
      | Event.Task_start ->
        if !depth = 0 then begin
          (match !idle_since with
          | Some t -> gaps := float_of_int (e.Event.ts - t) :: !gaps
          | None -> ());
          idle_since := None;
          open_start := Some e.Event.ts
        end;
        incr depth
      | Event.Task_end ->
        if !depth > 0 then decr depth
        else if dropped > 0 then begin
          (* An end with no start in the surviving window: when the ring
             provably wrapped ([dropped > 0]) the matching [Task_start]
             was overwritten — a long serial task (e.g. a steal-free run
             whose spawn events alone lap the ring) looks exactly like
             this.  The slice covered at least the whole observed prefix,
             which contains every slice counted so far; without drops an
             unmatched end is a malformed stream and stays ignored. *)
          bump Event.Task_start;
          busy := e.Event.ts - first_ts
        end;
        if !depth = 0 then begin
          (match !open_start with
          | Some s ->
            busy := !busy + (e.Event.ts - s);
            open_start := None
          | None -> ());
          idle_since := Some e.Event.ts
        end
      | Event.Steal_attempt ->
        if !idle_since = None && !open_start = None then
          idle_since := Some e.Event.ts
      | Event.Steal_commit -> (
        match !idle_since with
        | Some t -> latencies := float_of_int (e.Event.ts - t) :: !latencies
        | None -> ())
      | Event.Park -> park_since := Some e.Event.ts
      | Event.Unpark ->
        (match !park_since with
        | Some t ->
          parked := !parked + (e.Event.ts - t);
          park_since := None
        | None -> ())
      | _ -> ())
    evs;
  (* A slice still open at the end of the window (live snapshot, or a
     worker cut down mid-task) was busy at least until its last observed
     event; counting to [last_ts] undercounts but never exceeds the
     span. *)
  (match !open_start with
  | Some s -> busy := !busy + (last_ts - s)
  | None -> ());
  let busy = !busy in
  let span = Int.max 1 span_ns in
  {
    worker = w;
    events = Array.length evs;
    dropped;
    counts;
    parked_ns = !parked;
    busy_ns = busy;
    sched_ns = Int.max 0 (span_ns - busy);
    utilization = float_of_int busy /. float_of_int span;
    steal_latencies_ns = List.rev !latencies;
    idle_gaps_ns = List.rev !gaps;
  }

let summarize (tr : Trace.t) =
  let per_worker = Trace.per_worker_events tr in
  let t0 = ref max_int and t1 = ref min_int in
  Array.iter
    (fun evs ->
      Array.iter
        (fun e ->
          if e.Event.ts < !t0 then t0 := e.Event.ts;
          if e.Event.ts > !t1 then t1 := e.Event.ts)
        evs)
    per_worker;
  let span_ns = if !t1 >= !t0 then !t1 - !t0 else 0 in
  let workers : worker_summary array =
    Array.mapi
      (fun w evs ->
        summarize_worker ~span_ns ~t0:!t0
          ~dropped:(Ring.dropped (Trace.worker tr w))
          w evs)
      per_worker
  in
  let fold f init = Array.fold_left (fun acc (w : worker_summary) -> f acc w) init workers in
  let all_latencies = fold (fun acc w -> acc @ w.steal_latencies_ns) [] in
  let all_gaps = fold (fun acc w -> acc @ w.idle_gaps_ns) [] in
  let busy = fold (fun acc w -> acc + w.busy_ns) 0 in
  let sched = fold (fun acc w -> acc + w.sched_ns) 0 in
  let nworkers = Int.max 1 (Array.length workers) in
  let open Nowa_util.Stats in
  {
    span_ns;
    total_events = fold (fun acc w -> acc + w.events) 0;
    total_dropped = Trace.dropped tr;
    workers;
    utilization = fold (fun acc w -> acc +. w.utilization) 0.0 /. float_of_int nworkers;
    busy_ns = busy;
    sched_ns = sched;
    steal_p50_ns = percentile 50.0 all_latencies;
    steal_p95_ns = percentile 95.0 all_latencies;
    steal_p99_ns = percentile 99.0 all_latencies;
    idle_histogram = histogram all_gaps;
  }

let pp_ns ppf ns =
  if Float.is_nan ns then Format.fprintf ppf "-"
  else if ns < 1e3 then Format.fprintf ppf "%.0fns" ns
  else if ns < 1e6 then Format.fprintf ppf "%.1fus" (ns /. 1e3)
  else Format.fprintf ppf "%.2fms" (ns /. 1e6)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>trace: span=%.3fms events=%d dropped=%d utilization=%.1f%% \
     work/sched=%.3fms/%.3fms@,steal latency p50=%a p95=%a p99=%a@,"
    (float_of_int t.span_ns /. 1e6)
    t.total_events t.total_dropped (100.0 *. t.utilization)
    (float_of_int t.busy_ns /. 1e6)
    (float_of_int t.sched_ns /. 1e6)
    pp_ns t.steal_p50_ns pp_ns t.steal_p95_ns pp_ns t.steal_p99_ns;
  Format.fprintf ppf "idle gaps:";
  List.iter (fun (label, n) -> if n > 0 then Format.fprintf ppf " %s:%d" label n) t.idle_histogram;
  Format.fprintf ppf "@,";
  Array.iter
    (fun w ->
      let n = count w in
      Format.fprintf ppf
        "  w%d: util=%5.1f%% tasks=%d spawns=%d steals=%d/%d suspends=%d \
         events=%d%s@,"
        w.worker (100.0 *. w.utilization) (n Task_start) (n Spawn)
        (n Steal_commit) (n Steal_attempt) (n Suspend) w.events
        ((if n Park > 0 then
            Printf.sprintf " parks=%d/%.2fms" (n Park)
              (float_of_int w.parked_ns /. 1e6)
          else "")
        ^ (if n Req_claim > 0 || n Req_submit > 0 then
             Printf.sprintf " reqs=%d/%d" (n Req_submit) (n Req_claim)
           else "")
        ^
        if w.dropped > 0 then Printf.sprintf " dropped=%d" w.dropped else ""))
    t.workers;
  Format.fprintf ppf "@]"
