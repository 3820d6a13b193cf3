type worker = {
  id : int;
  pool : string;  (* owning micropool's name; "main" in flat topologies *)
  mutable spawns : int;
  mutable inlined : int;
  mutable steals : int;
  mutable steal_attempts : int;
  mutable lost_continuations : int;
  mutable suspensions : int;
  mutable fast_syncs : int;
  mutable fused_syncs : int;
  mutable resumes : int;
  mutable tasks : int;
  mutable stack_acquires : int;
  mutable stack_releases : int;
  mutable parks : int;
  mutable parked_ns : int;
  mutable wakeups : int;
  mutable wake_retries : int;
  mutable routed : int;
  mutable idle_rounds : int;
}

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

(* Worker records are written on every spawn/steal/sync by their owning
   worker, and one domain allocates them all; padding each record keeps
   one worker's counter stores from invalidating a neighbour's line. *)
let make_worker ?(pool = "main") id =
  Nowa_util.Padding.isolate (fun () ->
      {
        id;
        pool;
        spawns = 0;
        inlined = 0;
        steals = 0;
        steal_attempts = 0;
        lost_continuations = 0;
        suspensions = 0;
        fast_syncs = 0;
        fused_syncs = 0;
        resumes = 0;
        tasks = 0;
        stack_acquires = 0;
        stack_releases = 0;
        parks = 0;
        parked_ns = 0;
        wakeups = 0;
        wake_retries = 0;
        routed = 0;
        idle_rounds = 0;
      })

let make ?stacks ?(routed_abandoned = 0) workers ~elapsed_s =
  { workers; elapsed_s; stacks; routed_abandoned }

(* [inlined] moves only with [spawns], [parked_ns] only with [parks]. *)
let progress w =
  w.spawns + w.steals + w.steal_attempts + w.lost_continuations
  + w.suspensions + w.fast_syncs + w.fused_syncs + w.resumes + w.tasks
  + w.stack_acquires + w.stack_releases + w.parks + w.wakeups
  + w.wake_retries + w.routed + w.idle_rounds

(* Victims probed per failed-then-successful steal round; observed by the
   engines at the end of each sweep.  A wide distribution here means the
   sweep width ([Config.steal_sweep]) is doing real work. *)
let sweep_length =
  Nowa_obs.Registry.histogram "nowa_scheduler_steal_sweep_length"
    ~help:"Victims probed per steal round before success or give-up."

let total t f = Array.fold_left (fun acc w -> acc + f w) 0 t.workers

let pp ppf t =
  Format.fprintf ppf
    "@[<v>workers=%d elapsed=%.4fs spawns=%d inlined=%d steals=%d \
     attempts=%d lost-conts=%d suspensions=%d fast-syncs=%d fused-syncs=%d \
     resumes=%d tasks=%d stack-acq=%d parks=%d parked=%.2fms wakeups=%d \
     wake-retries=%d"
    (Array.length t.workers) t.elapsed_s
    (total t (fun w -> w.spawns))
    (total t (fun w -> w.inlined))
    (total t (fun w -> w.steals))
    (total t (fun w -> w.steal_attempts))
    (total t (fun w -> w.lost_continuations))
    (total t (fun w -> w.suspensions))
    (total t (fun w -> w.fast_syncs))
    (total t (fun w -> w.fused_syncs))
    (total t (fun w -> w.resumes))
    (total t (fun w -> w.tasks))
    (total t (fun w -> w.stack_acquires))
    (total t (fun w -> w.parks))
    (float_of_int (total t (fun w -> w.parked_ns)) /. 1e6)
    (total t (fun w -> w.wakeups))
    (total t (fun w -> w.wake_retries));
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
   on every scrape.  The worker fields are plain mutable ints written by
   their owning worker; a scrape reads them from another domain without
   synchronisation, which in the OCaml memory model yields some
   recently-written value per field (no tearing on immediates) — exactly
   the relaxed-read contract the obs layer documents.  The source is
   replaced wholesale per run and deliberately left in place after the
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

let collect () =
  match Atomic.get live_source with
  | None -> []
  | Some { src_workers; src_stacks; src_abandoned } ->
    let sum f = Array.fold_left (fun acc w -> acc + f w) 0 src_workers in
    let counter name help f =
      {
        Nowa_obs.Registry.name;
        help;
        value = Nowa_obs.Registry.Counter (float_of_int (sum f));
      }
    in
    let gauge name help v =
      {
        Nowa_obs.Registry.name;
        help;
        value = Nowa_obs.Registry.Gauge (float_of_int v);
      }
    in
    (* Per-pool labelled series (ISSUE 10): emitted only when the
       published run has more than one pool, as name-embedded labels —
       the registry's samples are flat name/value pairs and Prometheus
       exposition treats the brace suffix as a label set.  The
       unlabelled aggregates above keep their exact names either way. *)
    let pools =
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun w -> if not (Hashtbl.mem seen w.pool) then
            Hashtbl.add seen w.pool ())
        src_workers;
      Hashtbl.fold (fun k () acc -> k :: acc) seen []
      |> List.sort String.compare
    in
    let per_pool =
      if List.length pools <= 1 then []
      else
        List.concat_map
          (fun p ->
            let sump f =
              Array.fold_left
                (fun acc w -> if String.equal w.pool p then acc + f w else acc)
                0 src_workers
            in
            let labelled name help f =
              {
                Nowa_obs.Registry.name =
                  Printf.sprintf "%s{pool=%S}" name p;
                help;
                value = Nowa_obs.Registry.Counter (float_of_int (sump f));
              }
            in
            [
              labelled "nowa_scheduler_spawns_total"
                "Spawn points executed (per pool)." (fun w -> w.spawns);
              labelled "nowa_scheduler_steals_total"
                "Successful steals committed (per pool)." (fun w -> w.steals);
              labelled "nowa_scheduler_tasks_total"
                "Tasks executed from the scheduler loop (per pool)."
                (fun w -> w.tasks);
              labelled "nowa_scheduler_parks_total"
                "Times an idle worker blocked on its condition variable \
                 (per pool)."
                (fun w -> w.parks);
              labelled "nowa_scheduler_suspensions_total"
                "Explicit syncs that had to suspend (per pool)."
                (fun w -> w.suspensions);
            ])
          pools
    in
    let scheduler =
      [
        gauge "nowa_scheduler_workers" "Workers in the current/last run."
          (Array.length src_workers);
        counter "nowa_scheduler_spawns_total" "Spawn points executed."
          (fun w -> w.spawns);
        counter "nowa_scheduler_inlined_spawns_total"
          "Spawn points whose child ran inline: the worker already held a \
           stealable continuation (lazy exposure), or the frame had exposed \
           and no pool-mate was due the loop (no idle mate had flagged the \
           worker's re-exposure deadline as passed, a period that doubles \
           while re-exposures go untaken)."
          (fun w -> w.inlined);
        counter "nowa_scheduler_steals_total" "Successful steals committed."
          (fun w -> w.steals);
        counter "nowa_scheduler_steal_attempts_total"
          "Steal attempts including failures." (fun w -> w.steal_attempts);
        counter "nowa_scheduler_lost_continuations_total"
          "Pops that lost their continuation to a thief (implicit syncs)."
          (fun w -> w.lost_continuations);
        counter "nowa_scheduler_suspensions_total"
          "Explicit syncs that had to suspend." (fun w -> w.suspensions);
        counter "nowa_scheduler_fast_syncs_total"
          "Explicit syncs satisfied immediately." (fun w -> w.fast_syncs);
        counter "nowa_scheduler_fused_syncs_total"
          "Explicit syncs that took the fused no-steal fast path \
           (no publication, no suspension, no resume exchange)."
          (fun w -> w.fused_syncs);
        counter "nowa_scheduler_resumes_total"
          "Suspended frames resumed." (fun w -> w.resumes);
        counter "nowa_scheduler_tasks_total"
          "Tasks executed from the scheduler loop." (fun w -> w.tasks);
        counter "nowa_scheduler_stack_acquires_total"
          "Stack-pool acquisitions." (fun w -> w.stack_acquires);
        counter "nowa_scheduler_stack_releases_total"
          "Stack-pool releases." (fun w -> w.stack_releases);
        counter "nowa_scheduler_parks_total"
          "Times an idle worker blocked on its condition variable."
          (fun w -> w.parks);
        counter "nowa_scheduler_parked_ns_total"
          "Nanoseconds workers spent parked (not consuming CPU)."
          (fun w -> w.parked_ns);
        counter "nowa_scheduler_wakeups_total"
          "Sleeper-registry wake-ups issued by spawners."
          (fun w -> w.wakeups);
        counter "nowa_scheduler_wake_retries_total"
          "Park cancellations that raced a wake (token consumed late)."
          (fun w -> w.wake_retries);
        counter "nowa_scheduler_routed_total"
          "Roots pushed onto a pool's routed queue (spawn_on, spawn_unit_on)."
          (fun w -> w.routed);
        counter "nowa_scheduler_idle_rounds_total"
          "Scheduling rounds that found no work (idle loop and help-first \
           taskwait)."
          (fun w -> w.idle_rounds);
        {
          Nowa_obs.Registry.name = "nowa_routed_abandoned_total";
          help =
            "Routed roots still queued when main returned (counted after \
             the workers stopped, never run).";
          value = Nowa_obs.Registry.Counter (float_of_int (src_abandoned ()));
        };
      ]
    in
    let stacks =
      match src_stacks with
      | None -> []
      | Some f ->
        let s = f () in
        let pool_counter name help v =
          {
            Nowa_obs.Registry.name;
            help;
            value = Nowa_obs.Registry.Counter (float_of_int v);
          }
        in
        [
          pool_counter "nowa_stacks_allocated_total"
            "Simulated cactus stacks ever allocated." s.allocated_stacks;
          gauge "nowa_stacks_live" "Stacks currently checked out."
            s.live_stacks;
          gauge "nowa_stacks_max_rss_pages"
            "Resident-page watermark of the stack pool." s.max_rss_pages;
          pool_counter "nowa_stacks_madvise_calls_total"
            "Simulated madvise() calls." s.madvise_calls;
          pool_counter "nowa_stacks_pool_hits_total"
            "Stack acquisitions that crossed the global pool lock."
            s.pool_hits;
        ]
    in
    scheduler @ per_pool @ stacks

let () = Nowa_obs.Registry.register_collector collect
