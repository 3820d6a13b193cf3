module Ev = Nowa_trace.Event

type kind =
  | Spawns
  | Inlined
  | Steals
  | Steal_attempts
  | Lost_continuations
  | Suspensions
  | Fast_syncs
  | Fused_syncs
  | Resumes
  | Tasks
  | Stack_acquires
  | Stack_releases
  | Parks
  | Parked_ns
  | Wakeups
  | Wake_retries
  | Routed
  | Idle_rounds

external index : kind -> int = "%identity"

type row = {
  kind : kind;
  label : string;
  name : string;
  help : string;
  event : Ev.kind option;
  per_pool : bool;
}

let row ?event ?(per_pool = false) kind label help =
  { kind; label; name = "nowa_scheduler_" ^ label ^ "_total"; help; event; per_pool }

(* One row per kind, in constructor order: the counters' only list. *)
let table =
  [|
    row Spawns "spawns" "Spawn points executed." ~event:Ev.Spawn ~per_pool:true;
    row Inlined "inlined_spawns"
      "Spawn points whose child ran inline: the worker already held a \
       stealable continuation (lazy exposure), or the frame had exposed \
       and no pool-mate was due the loop (no idle mate had flagged the \
       worker's re-exposure deadline as passed, a period that doubles \
       while re-exposures go untaken).";
    row Steals "steals" "Successful steals committed (a batched grab is one)."
      ~event:Ev.Steal_commit ~per_pool:true;
    row Steal_attempts "steal_attempts" "Steal attempts including failures."
      ~event:Ev.Steal_attempt;
    row Lost_continuations "lost_continuations"
      "Pops that lost their continuation to a thief (implicit syncs)."
      ~event:Ev.Lost_continuation;
    row Suspensions "suspensions" "Explicit syncs that had to suspend."
      ~event:Ev.Suspend ~per_pool:true;
    row Fast_syncs "fast_syncs" "Explicit syncs satisfied immediately.";
    row Fused_syncs "fused_syncs"
      "Explicit syncs that took the fused no-steal fast path \
       (no publication, no suspension, no resume exchange).";
    row Resumes "resumes" "Suspended frames resumed." ~event:Ev.Resume;
    row Tasks "tasks" "Tasks executed from the scheduler loop."
      ~event:Ev.Task_start ~per_pool:true;
    row Stack_acquires "stack_acquires" "Stack-pool acquisitions."
      ~event:Ev.Stack_acquire;
    row Stack_releases "stack_releases" "Stack-pool releases."
      ~event:Ev.Stack_release;
    row Parks "parks" "Times an idle worker blocked on its condition variable."
      ~event:Ev.Park ~per_pool:true;
    row Parked_ns "parked_ns"
      "Nanoseconds workers spent parked (not consuming CPU).";
    row Wakeups "wakeups" "Sleeper-registry wake-ups issued by spawners.";
    row Wake_retries "wake_retries"
      "Park cancellations that raced a wake (token consumed late).";
    row Routed "routed"
      "Roots pushed onto a pool's routed queue (spawn_on, spawn_unit_on).";
    row Idle_rounds "idle_rounds"
      "Scheduling rounds that found no work (idle loop and help-first \
       taskwait).";
  |]

let () =
  Array.iteri
    (fun i r -> if index r.kind <> i then invalid_arg "Metrics.table: rows out of order")
    table

type worker = { id : int; pool : string; counts : int array }

type stack_stats = {
  allocated_stacks : int;
  live_stacks : int;
  max_rss_pages : int;
  madvise_calls : int;
  pool_hits : int;
}

type t = {
  workers : worker array;
  elapsed_s : float;
  stacks : stack_stats option;
  routed_abandoned : int;
}

(* A worker's counters are written on every spawn/steal/sync by their
   owning worker, and one domain allocates them all; padding each array
   keeps one worker's counter stores from invalidating a neighbour's
   line. *)
let make_worker ?(pool = "main") id =
  let counts = Nowa_util.Padding.isolate (fun () -> Array.make (Array.length table) 0) in
  { id; pool; counts }

let make ?stacks ?(routed_abandoned = 0) workers ~elapsed_s =
  { workers; elapsed_s; stacks; routed_abandoned }

let get w k = w.counts.(index k)
let progress w = Array.fold_left (fun acc r -> acc + get w r.kind) 0 table

(* Victims probed per failed-then-successful steal round; observed by the
   engines at the end of each sweep.  A wide distribution here means the
   sweep width ([Config.steal_sweep]) is doing real work. *)
let sweep_length =
  Nowa_obs.Registry.histogram "nowa_scheduler_steal_sweep_length"
    ~help:"Victims probed per steal round before success or give-up."

let sum ?pool workers k =
  Array.fold_left
    (fun acc w ->
      match pool with
      | Some p when not (String.equal w.pool p) -> acc
      | _ -> acc + get w k)
    0 workers

let total t k = sum t.workers k

let pp ppf t =
  Format.fprintf ppf "@[<v>workers=%d elapsed=%.4fs" (Array.length t.workers)
    t.elapsed_s;
  Array.iter (fun r -> Format.fprintf ppf " %s=%d" r.label (total t r.kind)) table;
  (match t.stacks with
  | None -> ()
  | Some s ->
    Format.fprintf ppf
      "@,stacks: allocated=%d live=%d max-rss=%d pages madvise=%d \
       pool-hits=%d"
      s.allocated_stacks s.live_stacks s.max_rss_pages s.madvise_calls
      s.pool_hits);
  if t.routed_abandoned > 0 then
    Format.fprintf ppf "@,routed roots abandoned at shutdown: %d" t.routed_abandoned;
  Format.fprintf ppf "@]"

(* -- live registry source ------------------------------------------------- *)

(* The engines publish their per-worker records here when a run starts;
   a collector registered once on [Nowa_obs.Registry.default] reads them
   on every scrape.  The counters are plain ints written by their owning
   worker; a scrape reads them from another domain without
   synchronisation, which in the OCaml memory model yields some
   recently-written value per counter (no tearing on immediates) —
   exactly the relaxed-read contract the obs layer documents.  The source
   is replaced wholesale per run and deliberately left in place after the
   join so end-of-process dumps still see the final totals. *)

type source = {
  src_workers : worker array;
  src_stacks : (unit -> stack_stats) option;
  src_abandoned : unit -> int;
}

let live_source : source option Atomic.t = Atomic.make None

let publish ?stacks ~routed_abandoned workers =
  Atomic.set live_source
    (Some
       { src_workers = workers; src_stacks = stacks; src_abandoned = routed_abandoned })

let counter name help v = { Nowa_obs.Registry.name; help; value = Counter (float_of_int v) }
let gauge name help v = { Nowa_obs.Registry.name; help; value = Gauge (float_of_int v) }

let collect () =
  match Atomic.get live_source with
  | None -> []
  | Some { src_workers; src_stacks; src_abandoned } ->
    (* Per-pool labelled series (the rows marked [per_pool]): emitted
       only when the published run has more than one pool, as
       name-embedded labels — the registry's samples are flat name/value
       pairs and Prometheus exposition treats the brace suffix as a label
       set.  The unlabelled aggregates keep their exact names either
       way. *)
    let rows = Array.to_list table in
    let pools =
      Array.to_list src_workers |> List.map (fun w -> w.pool) |> List.sort_uniq String.compare
    in
    let per_pool =
      if List.length pools <= 1 then []
      else
        List.concat_map
          (fun p ->
            List.filter_map
              (fun r ->
                if not r.per_pool then None
                else
                  Some
                    (counter (Printf.sprintf "%s{pool=%S}" r.name p) r.help
                       (sum ~pool:p src_workers r.kind)))
              rows)
          pools
    in
    let scheduler =
      gauge "nowa_scheduler_workers" "Workers in the current/last run."
        (Array.length src_workers)
      :: counter "nowa_routed_abandoned_total"
           "Routed roots still queued when main returned (counted after \
            the workers stopped, never run)."
           (src_abandoned ())
      :: List.map (fun r -> counter r.name r.help (sum src_workers r.kind)) rows
    in
    let stacks =
      match src_stacks with
      | None -> []
      | Some f ->
        let s = f () in
        [
          counter "nowa_stacks_allocated_total"
            "Simulated cactus stacks ever allocated." s.allocated_stacks;
          gauge "nowa_stacks_live" "Stacks currently checked out."
            s.live_stacks;
          gauge "nowa_stacks_max_rss_pages"
            "Resident-page watermark of the stack pool." s.max_rss_pages;
          counter "nowa_stacks_madvise_calls_total"
            "Simulated madvise() calls." s.madvise_calls;
          counter "nowa_stacks_pool_hits_total"
            "Stack acquisitions that crossed the global pool lock."
            s.pool_hits;
        ]
    in
    scheduler @ per_pool @ stacks

let () = Nowa_obs.Registry.register_collector collect
