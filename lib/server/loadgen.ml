(* Open-loop load generator over any runtime implementing
   {!Nowa_runtime.Runtime_intf.S}.

   Phase protocol: preload the keyspace sequentially, then replay the
   pre-generated schedule — the first [spec.warmup] requests warm the
   store, the allocator and the workers but are not recorded; the
   remaining [spec.requests] are the measurement; the implicit sync at
   scope exit is the drain (every injected request completes before the
   clock stops).

   Latency is measured from the request's scheduled arrival time, so a
   request that sat behind a backlog is charged its queueing delay even
   though the dispatch loop issued it late (no coordinated omission).

   There used to be an honest caveat here: under a continuation-stealing
   engine the dispatch loop's continuation is what gets stolen, so at
   saturation injection itself lagged and the instantaneous offered rate
   self-throttled.  [?pools:(injector, serve)] closes it (ISSUE 10): the
   dispatch loop runs on a dedicated injector micropool and requests are
   routed to the serve pool with [spawn_unit_on], so no serve worker can
   ever steal — and thereby stall — the injection continuation.  Routed
   requests are not covered by the scope's structured sync, so the drain
   becomes an explicit spin on the admission ledger instead. *)

type class_stats = {
  cls : Workload.op_class option;  (* [None] for the all-classes total *)
  count : int;
  mean_ns : float;
  p50_ns : float;
  p99_ns : float;
  p999_ns : float;
}

type report = {
  runtime : string;
  workers : int;
  mix : string;
  rate : float;  (* offered, req/s *)
  records : int;
  offered : int;  (* measured-phase requests *)
  completed : int;
  dropped : int;
  handoffs : int;
  elapsed_s : float;  (* first measured arrival -> drain complete *)
  throughput : float;  (* completed / elapsed *)
  per_class : class_stats list;  (* classes with traffic only *)
  total : class_stats;
  slo_ns : int option;  (* per-request deadline, when one was set *)
  deadline_misses : int;  (* measured requests completing past it *)
  span : Nowa_trace.Span.t;  (* per-request ledgers; disabled w/o anatomy *)
  anatomy : Anatomy.t option;  (* phase quantiles + tail, when requested *)
}

let nclasses = Array.length Workload.classes

let class_idx = function
  | Workload.Read -> 0
  | Workload.Update -> 1
  | Workload.Insert -> 2
  | Workload.Scan -> 3
  | Workload.Rmw -> 4

let class_label (s : class_stats) =
  match s.cls with Some c -> Workload.class_name c | None -> "total"

let stats_of_hist cls h =
  let s = Nowa_obs.Histogram.snapshot h in
  {
    cls;
    count = s.Nowa_obs.Histogram.count;
    mean_ns =
      (if s.Nowa_obs.Histogram.count = 0 then nan
       else s.Nowa_obs.Histogram.sum /. float_of_int s.Nowa_obs.Histogram.count);
    p50_ns = Nowa_obs.Histogram.quantile h 0.5;
    p99_ns = Nowa_obs.Histogram.quantile h 0.99;
    p999_ns = Nowa_obs.Histogram.quantile h 0.999;
  }

module Make (R : Nowa_runtime.Runtime_intf.S) = struct
  let run ?conf ?(anatomy = false) ?pools ?slo_ns (spec : Workload.spec) :
      report =
    let events = Workload.generate spec in
    (* One rid per scheduled event (warmup included, flagged unmeasured)
       so the allocation order — and hence every rid — is the schedule
       order: deterministic across runs and runtimes. *)
    let span =
      if anatomy then
        Nowa_trace.Span.create ~capacity:(Array.length events) ()
      else Nowa_trace.Span.disabled
    in
    let kv =
      Kv.create ~shards:spec.shards ~buckets_per_shard:spec.buckets_per_shard
        ~span ()
    in
    (* Convoy verdicts for the health watchdog: polled once per monitor
       scan, a no-op when no monitor is running. *)
    Nowa_runtime.Health.register_source ~name:"kv-convoy" (fun () ->
        Kv.convoys kv);
    (* Standalone (unregistered) histograms so each run starts at zero;
       the long-lived Serve_metrics registry series accumulate too. *)
    let hists =
      Array.map
        (fun c -> Nowa_obs.Histogram.create (Workload.class_name c))
        Workload.classes
    in
    let total_hist = Nowa_obs.Histogram.create "total" in
    let completed = Nowa_util.Padding.atomic 0 in
    let misses = Nowa_util.Padding.atomic 0 in
    (* Admission ledger: admitted-but-not-completed requests.  The
       dispatch loop admits a chunk at a time (one fetch-and-add per
       burst) and each request retires itself once its outcome is
       recorded.  A non-zero ledger after the drain is the conservation
       check: a surviving unit means a request was admitted but never
       ran. *)
    let inflight = Nowa_util.Padding.atomic 0 in
    let admit_chunk = 32 in
    let t0 = ref 0 and t_done = ref 0 in
    R.run ?conf (fun () ->
        for k = 0 to spec.records - 1 do
          ignore (Kv.exec kv (Kv.Put (k, k)))
        done;
        (* The schedule replay, parameterised over how a request closure
           reaches the workers: scoped spawns in the classic single-pool
           path, [spawn_unit_on] routing in the pooled path. *)
        let dispatch spawn_request =
          t0 := Nowa_util.Clock.now_ns ();
          let base = !t0 in
          Array.iteri
            (fun i (ev : Workload.event) ->
              let target = base + ev.at_ns in
              while Nowa_util.Clock.now_ns () < target do
                Domain.cpu_relax ()
              done;
              let record = i >= spec.warmup in
              if i mod admit_chunk = 0 then
                ignore
                  (Atomic.fetch_and_add inflight
                     (min admit_chunk (Array.length events - i)));
              let rid =
                Nowa_trace.Span.alloc span ~cls:(class_idx ev.cls)
                  ~measured:record ~sched_ns:target
              in
              spawn_request (fun () ->
                  (match Kv.exec ~rid kv ev.op with
                  | Kv.Dropped -> () (* counted at the store *)
                  | _ ->
                    (* One clock read for both the histogram sample and
                       the span's Reply close, so the conservation law
                       ties the ledger to this exact latency. *)
                    let now = Nowa_util.Clock.now_ns () in
                    Nowa_trace.Span.finish span rid ~ts:now;
                    Nowa_trace.Current.emit Nowa_trace.Event.Req_done
                      ~arg:0 ~arg2:rid;
                    if record then begin
                      let lat = now - target in
                      Nowa_obs.Histogram.observe hists.(class_idx ev.cls) lat;
                      Nowa_obs.Histogram.observe total_hist lat;
                      Serve_metrics.observe ev.cls lat;
                      Nowa_obs.Counter.incr Serve_metrics.requests;
                      (* Deadline tag: charged against the scheduled
                         arrival, same no-coordinated-omission clock
                         as the latency sample itself. *)
                      (match slo_ns with
                      | Some slo when lat > slo ->
                        Nowa_obs.Counter.incr Serve_metrics.deadline_misses;
                        ignore (Atomic.fetch_and_add misses 1)
                      | _ -> ());
                      ignore (Atomic.fetch_and_add completed 1)
                    end);
                  Atomic.decr inflight)
            )
            events
        in
        match pools with
        | None ->
          R.scope (fun sc -> dispatch (fun f -> R.spawn_unit sc f));
          (* Scope exit synced: every request has completed. *)
          t_done := Nowa_util.Clock.now_ns ()
        | Some (inject_name, serve_name) ->
          let serve = R.pool serve_name in
          let issue () = dispatch (fun f -> R.spawn_unit_on serve f) in
          (* Run the replay loop on the injector pool.  The root strand
             already lives in the first configured pool; routing through
             spawn_on only when the names differ avoids a self-deadlock
             (awaiting a task routed to the very pool whose one worker is
             blocked in the await). *)
          if String.equal (R.self_pool ()) inject_name then issue ()
          else R.await (R.spawn_on (R.pool inject_name) issue);
          (* Routed requests bypass the scope, so structured sync cannot
             drain them; the admission ledger is the join. *)
          while Atomic.get inflight > 0 do
            Domain.cpu_relax ()
          done;
          t_done := Nowa_util.Clock.now_ns ());
    if Atomic.get inflight <> 0 then
      failwith "loadgen: admission ledger non-zero after drain";
    Nowa_runtime.Health.unregister_source ~name:"kv-convoy";
    Nowa_obs.Counter.add Serve_metrics.dropped (Kv.dropped kv);
    Nowa_obs.Counter.add Serve_metrics.handoffs (Kv.handoffs kv);
    let measure_start =
      if Array.length events > spec.warmup then
        !t0 + events.(spec.warmup).at_ns
      else !t0
    in
    let elapsed_s =
      Float.max 1e-9 (float_of_int (!t_done - measure_start) /. 1e9)
    in
    let completed = Atomic.get completed in
    (* The workers that ran, as the run recorded them: under
       [Config.pools] the pool sizes, not [Config.workers]. *)
    let workers =
      match R.last_metrics () with
      | Some m -> Array.length m.Nowa_runtime.Metrics.workers
      | None -> 0
    in
    let per_class =
      Array.to_list
        (Array.mapi (fun i c -> stats_of_hist (Some c) hists.(i)) Workload.classes)
      |> List.filter (fun s -> s.count > 0)
    in
    {
      runtime = R.name;
      workers;
      mix = spec.mix.Workload.mname;
      rate = spec.rate;
      records = spec.records;
      offered = spec.requests;
      completed;
      dropped = Kv.dropped kv;
      handoffs = Kv.handoffs kv;
      elapsed_s;
      throughput = float_of_int completed /. elapsed_s;
      per_class;
      total = stats_of_hist None total_hist;
      slo_ns;
      deadline_misses = Atomic.get misses;
      span;
      anatomy =
        (if anatomy then begin
           Anatomy.publish span;
           Some (Anatomy.of_span span)
         end
         else None);
    }
end

let us ns = ns /. 1e3

let pp_report (r : report) =
  Printf.printf
    "serve: mix=%s runtime=%s workers=%d rate=%.0f/s records=%d\n"
    r.mix r.runtime r.workers r.rate r.records;
  Printf.printf
    "  offered=%d completed=%d dropped=%d handoffs=%d elapsed=%.3fs throughput=%.0f/s\n"
    r.offered r.completed r.dropped r.handoffs r.elapsed_s r.throughput;
  (match r.slo_ns with
  | Some slo ->
    Printf.printf "  slo=%.1fus deadline_misses=%d (%.3f%%)\n" (float slo /. 1e3)
      r.deadline_misses
      (if r.completed = 0 then 0.0
       else 100.0 *. float r.deadline_misses /. float r.completed)
  | None -> ());
  let row (s : class_stats) =
    [
      class_label s;
      string_of_int s.count;
      Printf.sprintf "%.1f" (us s.mean_ns);
      Printf.sprintf "%.1f" (us s.p50_ns);
      Printf.sprintf "%.1f" (us s.p99_ns);
      Printf.sprintf "%.1f" (us s.p999_ns);
    ]
  in
  Nowa_util.Table.print
    ~header:[ "op"; "count"; "mean us"; "p50 us"; "p99 us"; "p999 us" ]
    (List.map row r.per_class @ [ row r.total ]);
  match r.anatomy with None -> () | Some a -> Anatomy.pp a
