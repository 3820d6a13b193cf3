(* nowa-run: run any Table I benchmark on any runtime preset (or its
   serial elision), with repetition, timing and scheduler metrics —
   the equivalent of the paper artifact's benchmark driver.

     dune exec bin/nowa_run.exe -- --bench fib --runtime nowa -w 4 --runs 5
     dune exec bin/nowa_run.exe -- --list *)

open Cmdliner

let sizes =
  [
    ("test", Nowa_kernels.Registry.Test);
    ("small", Nowa_kernels.Registry.Small);
    ("medium", Nowa_kernels.Registry.Medium);
    ("large", Nowa_kernels.Registry.Large);
  ]

let list_benchmarks () =
  print_endline "benchmarks (Table I):";
  List.iter
    (fun name ->
      let inst = Nowa_kernels.Registry.find Nowa_kernels.Registry.Medium name in
      Printf.printf "  %-10s default input (medium): %s\n" name
        inst.Nowa_kernels.Registry.input_desc)
    Nowa_kernels.Registry.names;
  print_endline "";
  print_endline "runtimes:";
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      Printf.printf "  %-12s %s\n" R.name R.description)
    Nowa.Presets.all;
  Printf.printf "  %-12s %s\n" "serial" "serial elision (the T_s baseline)"

let resolve_runtime name : (module Nowa.RUNTIME) =
  if String.equal name "serial" then (module Nowa_runtime.Serial_runtime)
  else
    match Nowa.Presets.find name with
    | r -> r
    | exception Not_found ->
      Printf.eprintf "unknown runtime %S (try --list)\n" name;
      exit 1

let trace_capacity = 65_536

module W = Nowa_dag.Wsim
module Convoy = Nowa_dag.Convoy
module Causal = Nowa_dag.Causal

(* --ledger / --causal: instead of running the benchmark live, record its
   fork/join DAG (serial instrumented run), replay it through the
   discrete-event simulator under [model_name] at [workers] virtual
   workers, and print the causal profile: the exact time ledger, the
   per-resource contention table, detected lock convoys and — with
   --causal — the what-if sensitivity ranking.  The profile is also
   published to the metrics registry, so --metrics-addr / --metrics-out
   expose it as nowa_wsim_* gauges. *)
let sim_profile ~inst ~bench ~workers ~model_name ~causal ~trace =
  let cm =
    match Nowa_dag.Cost_model.find model_name with
    | m -> m
    | exception Not_found ->
      Printf.eprintf "unknown cost model %S (one of: %s)\n" model_name
        (String.concat ", "
           (List.map
              (fun m -> m.Nowa_dag.Cost_model.cname)
              Nowa_dag.Cost_model.all));
      exit 1
  in
  Printf.printf "%s (%s): recording DAG (serial instrumented run)...\n%!"
    bench inst.Nowa_kernels.Registry.input_desc;
  let thunk =
    inst.Nowa_kernels.Registry.make_thunk (module Nowa_dag.Recorder)
  in
  let dag, _ = Nowa_dag.Recorder.record thunk in
  ignore (Nowa_dag.Dag.clamp_work dag);
  let tr =
    match trace with
    | None -> None
    | Some _ ->
      Some
        (Nowa.Trace.create ~clock:Nowa.Trace.Virtual ~workers
           ~capacity:trace_capacity ())
  in
  let r = W.simulate ?trace:tr ~detail:true cm ~workers dag in
  Printf.printf
    "wsim:%s, %d virtual workers: makespan %.3f ms, speedup %.2f, %d steals%s\n"
    cm.Nowa_dag.Cost_model.cname workers
    (r.W.makespan_ns /. 1e6)
    r.W.speedup r.W.steals
    (if r.W.truncated then " (TRUNCATED: ledger covers the partial horizon)"
     else "");
  Format.printf "%a@." W.pp_ledger r.W.ledger;
  Printf.printf "resources:\n";
  List.iter
    (fun (s : W.resource_stats) ->
      if s.W.acquisitions > 0 then
        Printf.printf
          "  %-8s %9d acq  %9d contended  wait %12.0f ns  hold %12.0f ns\n"
          (W.resource_class_name s.W.rclass)
          s.W.acquisitions s.W.contended s.W.wait_ns s.W.hold_ns)
    r.W.resources;
  let convoys = Convoy.detect r.W.acquisitions in
  if convoys = [] then
    Printf.printf "convoys: none (queue depth never reached 4)\n"
  else begin
    Printf.printf "convoys (>=4 workers queued on one resource):\n";
    List.iter (fun c -> Format.printf "  %a@." Convoy.pp c) convoys
  end;
  if causal then begin
    let knobs =
      Causal.model_knobs
      @
      match Causal.hottest_strand dag with
      | Some v -> [ Causal.Strand_work v ]
      | None -> []
    in
    let ranking = Causal.rank cm ~workers dag knobs in
    Printf.printf
      "what-if sensitivity (virtual speedup of zeroing each cost):\n";
    List.iter
      (fun (x : Causal.experiment) ->
        Printf.printf "  %-12s %+7.2f%%\n"
          (Causal.knob_name x.Causal.knob)
          x.Causal.zero_gain_pct)
      ranking
  end;
  Causal.publish r convoys;
  match (trace, tr) with
  | Some file, Some tr ->
    let counters = Convoy.counter_tracks r.W.acquisitions in
    (try
       Nowa.Perfetto.write_file
         ~process_name:
           (Printf.sprintf "wsim:%s:%s/%dw" cm.Nowa_dag.Cost_model.cname bench
              workers)
         ~counters file tr
     with Sys_error msg ->
       Printf.eprintf "trace: cannot write %s\n" msg;
       exit 1);
    Printf.printf
      "trace: wrote %s (%d queue-depth counter tracks; open in \
       ui.perfetto.dev)\n"
      file (List.length counters)
  | _ -> ()

let parse_idle_policy = function
  | "spin" -> Nowa.Config.Spin
  | "yield" -> Nowa.Config.Yield_after 512
  | "park" -> Nowa.Config.Park_after 512
  | s ->
    Printf.eprintf "unknown idle policy %S (spin|yield|park)\n" s;
    exit 1

(* --serve: instead of a Table I kernel, drive the sharded KV service
   with an open-loop YCSB workload (exponential inter-arrivals at
   --rate, zipf-skewed keys) and print per-op-class latency
   percentiles.  Composable with --runtime/-w/--idle-policy/
   --steal-sweep/--trace/--metrics-addr/--metrics-out. *)
let serve_run ~runtime ~workers ~idle_policy ~steal_sweep ~trace ~anatomy
    ~pools ~mix ~rate ~requests ~warmup ~records ~shards ~theta ~watchdog
    ~slo_us ~inject_wedge =
  let (module R : Nowa.RUNTIME) = resolve_runtime runtime in
  let mix =
    match Nowa_server.Workload.find_mix mix with
    | Some m -> m
    | None ->
      Printf.eprintf "unknown YCSB mix %S (one of: %s)\n" mix
        (String.concat ", "
           (List.map
              (fun (m : Nowa_server.Workload.mix) ->
                m.Nowa_server.Workload.mname)
              Nowa_server.Workload.mixes));
      exit 1
  in
  let spec =
    {
      (Nowa_server.Workload.default_spec ~mix) with
      Nowa_server.Workload.records;
      rate;
      warmup;
      requests;
      shards;
      theta;
    }
  in
  let conf =
    {
      (Nowa.Config.with_workers workers) with
      Nowa.Config.trace_capacity = (if trace = None then 0 else trace_capacity);
      idle_policy = parse_idle_policy idle_policy;
      steal_sweep = max 1 steal_sweep;
      watchdog_interval_ms = watchdog;
    }
  in
  (* --pools: carve a 1-worker injector micropool off the front (the
     root strand lives in the first pool, so the dispatch loop runs
     there) and serve requests from the rest, so no serve worker can
     steal the injection continuation (see lib/server/loadgen.ml). *)
  let serve_workers = max 1 (workers - 1) in
  let conf =
    if pools then
      {
        conf with
        Nowa.Config.pools =
          [
            Nowa.Config.pool "inject" ~workers:1;
            Nowa.Config.pool "serve" ~workers:serve_workers;
          ];
      }
    else conf
  in
  let slo_ns =
    if slo_us > 0.0 then Some (int_of_float (slo_us *. 1e3)) else None
  in
  (* SLO burn-rate as a watchdog verdict source: each monitor scan
     samples the cumulative serve-latency histogram and judges the
     multi-window burn.  1% error budget over the window set. *)
  (match slo_ns with
  | Some slo ->
    let br = Nowa.Obs.Burn_rate.create ~slo_ns:slo ~budget:0.01 () in
    Nowa.Health.register_source ~name:"slo" (fun () ->
        Nowa.Obs.Burn_rate.observe br Nowa_server.Serve_metrics.latency
          ~now_ns:(Nowa_util.Clock.now_ns ())
        |> List.map (fun (b : Nowa.Obs.Burn_rate.breach) ->
               Nowa.Health.Slo_burn
                 {
                   long_s = b.Nowa.Obs.Burn_rate.window.Nowa.Obs.Burn_rate.long_s;
                   short_s = b.window.Nowa.Obs.Burn_rate.short_s;
                   long_burn = b.long_burn;
                   short_burn = b.short_burn;
                 }))
  | None -> ());
  (* The KV convoy source is registered by the loadgen itself (it owns
     the store); here we only arm the optional wedge fault. *)
  (match inject_wedge with
  | Some spec -> (
    match String.split_on_char ':' spec with
    | [ s; ms ] -> (
      match (int_of_string_opt s, int_of_string_opt ms) with
      | Some shard, Some ms -> Nowa_server.Kv.inject_wedge ~shard ~ms
      | _ ->
        Printf.eprintf "bad --inject-wedge %S (SHARD:MS)\n" spec;
        exit 1)
    | [ s ] -> (
      match int_of_string_opt s with
      | Some shard -> Nowa_server.Kv.inject_wedge ~shard ~ms:200
      | None ->
        Printf.eprintf "bad --inject-wedge %S (SHARD:MS)\n" spec;
        exit 1)
    | _ ->
      Printf.eprintf "bad --inject-wedge %S (SHARD:MS)\n" spec;
      exit 1)
  | None -> ());
  let module L = Nowa_server.Loadgen.Make (R) in
  let report =
    L.run ~conf ~anatomy
      ?pools:(if pools then Some ("inject", "serve") else None)
      ?slo_ns spec
  in
  Nowa.Health.unregister_source ~name:"slo";
  Nowa_server.Loadgen.pp_report report;
  (match report.Nowa_server.Loadgen.anatomy with
  | None -> ()
  | Some a ->
    let json_path = Nowa_util.Artifacts.path "serve-anatomy.json" in
    let oc = open_out json_path in
    output_string oc (Nowa_server.Anatomy.json a);
    output_char oc '\n';
    close_out oc;
    let tail_path = Nowa_util.Artifacts.path "serve-tail.trace.json" in
    Nowa_server.Anatomy.write_tail_perfetto tail_path a;
    Printf.printf
      "anatomy: wrote %s and %s (%d tail spans; conservation violations=%d)\n"
      json_path tail_path
      (List.length a.Nowa_server.Anatomy.tail)
      a.Nowa_server.Anatomy.violations);
  match trace with
  | None -> ()
  | Some file -> (
    match R.last_trace () with
    | Some tr ->
      (try
         Nowa.Perfetto.write_file
           ~process_name:
             (Printf.sprintf "serve:%s:%s/%dw" R.name
                mix.Nowa_server.Workload.mname
                report.Nowa_server.Loadgen.workers)
           file tr
       with Sys_error msg ->
         Printf.eprintf "trace: cannot write %s\n" msg;
         exit 1);
      Printf.printf
        "trace: wrote %s (%d events kept, %d overwritten; open in \
         ui.perfetto.dev)\n"
        file
        (Array.length (Nowa.Trace.events tr))
        (Nowa.Trace.dropped tr)
    | None ->
      Printf.eprintf "trace: runtime %S produced no trace (serial?)\n" R.name)

let main list bench runtime workers runs size madvise idle_policy steal_sweep
    trace metrics_addr metrics_out verbose model ledger causal serve anatomy
    pools mix rate requests warmup records shards theta watchdog slo_us
    inject_stall inject_wedge dump_health =
  if list then list_benchmarks ()
  else begin
    (* Bare output filenames land in the gitignored artifacts/ dir. *)
    let trace = Option.map Nowa_util.Artifacts.path trace in
    (* Start the exposition endpoint before any run so the registry can
       be scraped while the benchmark executes.  /healthz and /statusz
       route to the watchdog's latest verdicts. *)
    let server =
      match metrics_addr with
      | None -> None
      | Some addr -> (
        match
          Nowa.Obs.Server.start ~healthz:Nowa.Health.healthz
            ~statusz:Nowa.Health.statusz ~addr ()
        with
        | Ok s ->
          Printf.printf "metrics: serving Prometheus text on port %d\n%!"
            (Nowa.Obs.Server.port s);
          Some s
        | Error msg ->
          Printf.eprintf "metrics: %s\n" msg;
          exit 1)
    in
    (match inject_stall with
    | None -> ()
    | Some spec -> (
      match Nowa.Health.Inject.parse_stall spec with
      | Some (worker, ms) -> Nowa.Health.Inject.stall ~worker ~ms
      | None ->
        Printf.eprintf "bad --inject-stall %S (WORKER:MS)\n" spec;
        exit 1));
    if serve then
      serve_run ~runtime ~workers ~idle_policy ~steal_sweep ~trace ~anatomy
        ~pools ~mix ~rate ~requests ~warmup ~records ~shards ~theta ~watchdog
        ~slo_us ~inject_wedge
    else begin
    let size =
      match List.assoc_opt size sizes with
      | Some s -> s
      | None ->
        Printf.eprintf "unknown size %S (test|small|medium|large)\n" size;
        exit 1
    in
    let inst =
      match Nowa_kernels.Registry.find size bench with
      | i -> i
      | exception Not_found ->
        Printf.eprintf "unknown benchmark %S (try --list)\n" bench;
        exit 1
    in
    if ledger || causal then
      sim_profile ~inst ~bench ~workers ~model_name:model ~causal ~trace
    else begin
    let (module R : Nowa.RUNTIME) = resolve_runtime runtime in
    let conf =
      {
        (Nowa.Config.with_workers workers) with
        Nowa.Config.madvise;
        trace_capacity = (if trace = None then 0 else trace_capacity);
        idle_policy = parse_idle_policy idle_policy;
        steal_sweep = max 1 steal_sweep;
        watchdog_interval_ms = watchdog;
      }
    in
    let reference = Nowa_kernels.Registry.reference size bench in
    let thunk = inst.Nowa_kernels.Registry.make_thunk (module R) in
    Printf.printf "%s (%s) on %s, %d workers, %d runs%s\n" bench
      inst.Nowa_kernels.Registry.input_desc R.name workers runs
      (if madvise then ", madvise on" else "");
    let times = ref [] in
    for run = 1 to runs do
      (* Time inside [run] so that worker start-up is excluded, as the
         paper does ("measurements performed from within the
         applications"). *)
      let elapsed, fp =
        R.run ~conf (fun () -> Nowa_util.Clock.time_it thunk)
      in
      let ok = Nowa_kernels.Registry.matches inst reference fp in
      if not ok then begin
        Printf.eprintf "run %d: WRONG RESULT (%.9g vs %.9g)\n" run fp reference;
        exit 1
      end;
      times := elapsed :: !times;
      if verbose then Printf.printf "  run %d: %.4f s\n" run elapsed
    done;
    let open Nowa_util.Stats in
    Printf.printf "time: mean %.4f s, median %.4f s, sd %.4f s, min %.4f s\n"
      (mean !times) (median !times) (stddev !times) (minimum !times);
    (match R.last_metrics () with
    | Some m when verbose ->
      Format.printf "%a@." Nowa.Metrics.pp m
    | _ -> ());
    let summary =
      match trace with
      | None -> None
      | Some file -> (
        (* The rings hold the last run's events (each run overwrites). *)
        match R.last_trace () with
        | Some tr ->
          (try
             Nowa.Perfetto.write_file
               ~process_name:(Printf.sprintf "%s:%s/%dw" R.name bench workers)
               file tr
           with Sys_error msg ->
             Printf.eprintf "trace: cannot write %s\n" msg;
             exit 1);
          Printf.printf
            "trace: wrote %s (%d events kept, %d overwritten; open in \
             chrome://tracing or ui.perfetto.dev)\n"
            file
            (Array.length (Nowa.Trace.events tr))
            (Nowa.Trace.dropped tr);
          let s = Nowa.Trace_analysis.summarize tr in
          Format.printf "%a@." Nowa.Trace_analysis.pp s;
          Some s
        | None ->
          Printf.eprintf "trace: runtime %S produced no trace (serial?)\n"
            R.name;
          None)
    in
    if verbose then begin
      (* One-line live-observability digest: scheduler utilization (from
         the trace when recorded), steal rate of the last run, and the
         coordination-cost tails from the sync histograms. *)
      let util =
        match summary with
        | Some s ->
          Printf.sprintf "%.1f%%" (100.0 *. s.Nowa.Trace_analysis.utilization)
        | None -> "n/a"
      in
      let steals_per_s =
        match R.last_metrics () with
        | Some m when m.Nowa.Metrics.elapsed_s > 0.0 ->
          Printf.sprintf "%.0f"
            (float_of_int
               (Nowa.Metrics.total m Nowa.Metrics.Steals)
            /. m.Nowa.Metrics.elapsed_s)
        | _ -> "n/a"
      in
      let p99 h =
        let v = Nowa.Obs.Histogram.percentile h 0.99 in
        if Float.is_nan v then "n/a" else Printf.sprintf "%.0f" v
      in
      Printf.printf
        "obs: utilization=%s steals/s=%s wfc-rmw-retry-p99=%s \
         frame-lock-spin-p99=%s\n"
        util steals_per_s
        (p99 Nowa_sync.Sync_metrics.wfc_rmw_retries)
        (p99 Nowa_sync.Sync_metrics.frame_lock_spins)
    end
    end
    end;
    if dump_health then begin
      let dir = Nowa.Health.dump_now ~reason:"manual" in
      Printf.printf "health: wrote postmortem bundle to %s\n" dir
    end;
    (match metrics_out with
    | None -> ()
    | Some "-" -> print_string (Nowa.Obs.Expose.to_prometheus ())
    | Some file ->
      let file = Nowa_util.Artifacts.path file in
      (try Nowa.Obs.Expose.write_file file
       with Sys_error msg ->
         Printf.eprintf "metrics: cannot write %s\n" msg;
         exit 1);
      Printf.printf "metrics: wrote Prometheus dump to %s\n" file);
    Option.iter Nowa.Obs.Server.stop server
  end

let cmd =
  let list = Arg.(value & flag & info [ "list"; "l" ] ~doc:"List benchmarks and runtimes.") in
  let bench =
    Arg.(value & opt string "fib" & info [ "bench"; "b" ] ~docv:"NAME" ~doc:"Benchmark name.")
  in
  let runtime =
    Arg.(value & opt string "nowa" & info [ "runtime"; "r" ] ~docv:"NAME" ~doc:"Runtime preset or 'serial'.")
  in
  let workers =
    Arg.(
      value
      & opt int (Nowa_util.Cpu.default_workers ())
      & info [ "workers"; "w" ] ~docv:"W" ~doc:"Worker count.")
  in
  let runs = Arg.(value & opt int 3 & info [ "runs"; "n" ] ~docv:"N" ~doc:"Repetitions.") in
  let size =
    Arg.(value & opt string "small" & info [ "size"; "s" ] ~docv:"SIZE" ~doc:"Input scale: test|small|medium|large.")
  in
  let madvise =
    Arg.(value & flag & info [ "madvise" ] ~doc:"Enable the simulated madvise() stack-page release.")
  in
  let idle_policy =
    Arg.(
      value
      & opt string "park"
      & info [ "idle-policy" ] ~docv:"POLICY"
          ~doc:
            "What an out-of-work worker does: $(b,spin) (busy-wait with \
             backoff, burns a core), $(b,yield) (also yields the OS \
             timeslice), or $(b,park) (the default: block on the worker's \
             condition variable behind the wait-free sleeper registry). \
             Composable with $(b,--trace) (Park/Unpark slices), \
             $(b,--metrics-out) (nowa_scheduler_parks_total etc.) and \
             $(b,--ledger).")
  in
  let steal_sweep =
    Arg.(
      value
      & opt int (Nowa.Config.default ()).Nowa.Config.steal_sweep
      & info [ "steal-sweep" ] ~docv:"N"
          ~doc:
            "Victims probed per steal round (batched steal width on the \
             child-stealing and central baselines).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record per-worker scheduler events during the (last) run and \
             write a Perfetto/chrome://tracing JSON timeline to $(docv), \
             plus a strand-level summary on stdout.")
  in
  let metrics_addr =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-addr" ] ~docv:"[HOST:]PORT"
          ~doc:
            "Serve live Prometheus text-format metrics on $(docv) for the \
             duration of the run (port 0 picks an ephemeral port). \
             Composable with $(b,--trace).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a final Prometheus text-format dump of the metrics \
             registry to $(docv) at exit ('-' for stdout).")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Per-run times, metrics and a one-line obs summary.") in
  let model =
    Arg.(
      value
      & opt string "nowa"
      & info [ "model" ] ~docv:"NAME"
          ~doc:
            "Cost model for $(b,--ledger)/$(b,--causal) simulation \
             (nowa|nowa-the|fibril|cilkplus|tbb|lomp-untied|lomp-tied|gomp).")
  in
  let ledger =
    Arg.(
      value & flag
      & info [ "ledger" ]
          ~doc:
            "Instead of running live: record the benchmark's DAG, replay it \
             on $(b,-w) virtual workers under $(b,--model), and print the \
             exact per-worker time ledger, resource contention and detected \
             lock convoys.  With $(b,--trace), the virtual schedule plus \
             queue-depth counter tracks are written as Perfetto JSON.")
  in
  let causal =
    Arg.(
      value & flag
      & info [ "causal" ]
          ~doc:
            "Everything $(b,--ledger) prints, plus what-if virtual-speedup \
             experiments: each cost-model component (and the hottest strand) \
             is scaled and the DAG re-simulated, ranking which overhead \
             limits the makespan.")
  in
  let serve =
    Arg.(
      value & flag
      & info [ "serve" ]
          ~doc:
            "Instead of a Table I kernel: drive the sharded in-memory KV \
             service with an open-loop YCSB workload (exponential \
             inter-arrivals at $(b,--rate), zipf-skewed keys, every request \
             a runtime task) and print per-op-class latency percentiles.  \
             Composable with $(b,--runtime), $(b,-w), $(b,--idle-policy), \
             $(b,--steal-sweep), $(b,--trace), $(b,--metrics-addr) and \
             $(b,--metrics-out).")
  in
  let anatomy =
    Arg.(
      value & flag
      & info [ "anatomy" ]
          ~doc:
            "With $(b,--serve): attach a request-scoped span ledger \
             (sched_wait/mailbox_wait/handoff_wait/exec/reply \
             per request, conservation-checked against end-to-end \
             latency), print the per-phase quantile table, and write \
             artifacts/serve-anatomy.json plus a Perfetto timeline of \
             the slowest sampled requests to \
             artifacts/serve-tail.trace.json.")
  in
  let pools =
    Arg.(
      value & flag
      & info [ "pools" ]
          ~doc:
            "With $(b,--serve): run on a two-micropool topology — a \
             dedicated 1-worker $(i,inject) pool pinning the open-loop \
             dispatch loop, and a $(i,serve) pool (the remaining workers) \
             that requests are routed to with spawn_on.  Closes the \
             injection self-throttle of continuation-stealing engines: \
             serve workers can no longer steal the dispatch continuation.")
  in
  let mix =
    Arg.(
      value & opt string "A"
      & info [ "mix" ] ~docv:"MIX"
          ~doc:"YCSB workload mix for $(b,--serve): A|B|C|D|E|F.")
  in
  let rate =
    Arg.(
      value & opt float 5_000.0
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Offered open-loop arrival rate (requests/s) for $(b,--serve).")
  in
  let requests =
    Arg.(
      value & opt int 5_000
      & info [ "requests" ] ~docv:"N"
          ~doc:"Measured requests per $(b,--serve) run (after warm-up).")
  in
  let warmup =
    Arg.(
      value & opt int 500
      & info [ "warmup" ] ~docv:"N"
          ~doc:"Warm-up requests excluded from $(b,--serve) statistics.")
  in
  let records =
    Arg.(
      value & opt int 2_000
      & info [ "records" ] ~docv:"N"
          ~doc:"Records preloaded into the store for $(b,--serve).")
  in
  let shards =
    Arg.(
      value & opt int 16
      & info [ "shards" ] ~docv:"N"
          ~doc:"Hash shards in the KV store for $(b,--serve).")
  in
  let theta =
    Arg.(
      value & opt float 0.99
      & info [ "theta" ] ~docv:"T"
          ~doc:"Zipfian skew parameter (0 < $(docv) < 1) for $(b,--serve).")
  in
  let watchdog =
    Arg.(
      value & opt int 0
      & info [ "watchdog" ] ~docv:"MS"
          ~doc:
            "Run the health watchdog: a monitor thread samples per-worker \
             counters and sleeper state every $(docv) milliseconds, \
             distinguishes parked-idle from stalled workers, detects \
             global starvation, KV combiner convoys and SLO burn, and \
             dumps a postmortem bundle to artifacts/ on any verdict.  \
             0 (the default) disables it.")
  in
  let slo_us =
    Arg.(
      value & opt float 0.0
      & info [ "slo" ] ~docv:"US"
          ~doc:
            "With $(b,--serve): per-request latency SLO in microseconds.  \
             Tags requests completing past it (deadline_misses in the \
             report, nowa_serve_deadline_misses_total in the registry) \
             and, with $(b,--watchdog), feeds the multi-window burn-rate \
             evaluator over the serve latency histogram.  0 disables.")
  in
  let inject_stall =
    Arg.(
      value & opt (some string) None
      & info [ "inject-stall" ] ~docv:"WORKER:MS"
          ~doc:
            "Fault injection: the next task start of $(b,WORKER) spins \
             for $(b,MS) milliseconds (default 200), manufacturing the \
             stall the watchdog must detect.  Test/CI only.")
  in
  let inject_wedge =
    Arg.(
      value & opt (some string) None
      & info [ "inject-wedge" ] ~docv:"SHARD:MS"
          ~doc:
            "With $(b,--serve): the next KV combiner to claim $(b,SHARD) \
             spins for $(b,MS) milliseconds (default 200) while holding \
             the combining flag, manufacturing the convoy the watchdog \
             must detect.  Test/CI only.")
  in
  let dump_health =
    Arg.(
      value & flag
      & info [ "dump-health" ]
          ~doc:
            "Write a postmortem bundle (watchdog verdict table, metrics \
             snapshot, frozen trace window) to artifacts/ after the run, \
             even without an anomaly verdict.")
  in
  Cmd.v
    (Cmd.info "nowa-run" ~doc:"Run Nowa benchmarks on any runtime preset")
    Term.(const main $ list $ bench $ runtime $ workers $ runs $ size $ madvise $ idle_policy $ steal_sweep $ trace $ metrics_addr $ metrics_out $ verbose $ model $ ledger $ causal $ serve $ anatomy $ pools $ mix $ rate $ requests $ warmup $ records $ shards $ theta $ watchdog $ slo_us $ inject_stall $ inject_wedge $ dump_health)

let () = exit (Cmd.eval cmd)
