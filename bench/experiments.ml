(* The per-figure / per-table experiments of the paper's evaluation
   (Section V), regenerated at two levels:

   - sim: recorded DAGs replayed on 1-256 virtual workers under the
     per-runtime cost models (the substitute for the 256-thread EPYC);
   - real: the actual schedulers on the host's cores, speedups computed
     with the paper's methodology against the serial elision. *)

module Registry = Nowa_kernels.Registry
module CM = Nowa_dag.Cost_model
module Stats = Nowa_util.Stats
open Harness

let all_benchmarks = Registry.names

let sim_table ~opts ~benchmarks ~models =
  List.iter
    (fun bench ->
      let dag = recorded_dag ~opts bench in
      let inst = Registry.find (sim_size_for ~opts bench) bench in
      subsection
        (Printf.sprintf "%s (sim, %s, T1=%.2f ms, parallelism=%.0f)" bench
           inst.Registry.input_desc
           (Nowa_dag.Dag.total_work dag /. 1e6)
           (Nowa_dag.Dag.parallelism dag));
      let header = "threads" :: List.map (fun m -> m.CM.cname) models in
      let rows =
        List.map
          (fun p ->
            string_of_int p
            :: List.map
                 (fun m -> fmt_f2 (sim_speedup ~opts m bench p).Nowa_dag.Wsim.speedup)
                 models)
          opts.sim_workers
      in
      Nowa_util.Table.print ~header rows)
    benchmarks

let real_table ~opts ~benchmarks ~runtimes =
  List.iter
    (fun bench ->
      let ts = serial_mean ~opts bench in
      subsection (Printf.sprintf "%s (real, Ts=%.4f s)" bench ts);
      let header =
        "threads"
        :: List.map (fun (module R : Nowa.RUNTIME) -> R.name) runtimes
      in
      let rows =
        List.map
          (fun w ->
            string_of_int w
            :: List.map
                 (fun (module R : Nowa.RUNTIME) ->
                   fmt_speedup (real_speedup ~opts (module R) bench w))
                 runtimes)
          opts.real_workers
      in
      Nowa_util.Table.print ~header rows)
    benchmarks

(* Geometric-mean speedup ratio of runtime [a] over [b] across
   benchmarks, the paper's cross-runtime summary statistic. *)
let sim_summary ~opts ~benchmarks ~baseline ~workers models =
  let speedup m bench = (sim_speedup ~opts m bench workers).Nowa_dag.Wsim.speedup in
  List.map
    (fun m ->
      let ratios =
        List.map (fun b -> (speedup m b, speedup baseline b)) benchmarks
      in
      (m.CM.cname, Stats.ratio_geomean ratios))
    models

(* ---------------------------------------------------------------- *)

let figure1 ~opts () =
  section "Figure 1: nqueens speedup, Nowa vs Fibril vs Cilk Plus vs TBB";
  sim_table ~opts ~benchmarks:[ "nqueens" ]
    ~models:[ CM.nowa; CM.fibril; CM.cilkplus; CM.tbb ];
  real_table ~opts ~benchmarks:[ "nqueens" ]
    ~runtimes:Nowa.Presets.figure7_set

let table1 ~opts () =
  section "Table I: the twelve benchmarks";
  ignore opts;
  let sloc name =
    let path = Filename.concat "lib/kernels" (name ^ ".ml") in
    if Sys.file_exists path then begin
      let ic = open_in path in
      let n = ref 0 in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if String.length line > 0 && not (String.length line >= 2 && String.sub line 0 2 = "(*")
           then incr n
         done
       with End_of_file -> close_in ic);
      string_of_int !n
    end
    else "-"
  in
  let header = [ "Benchmark"; "Input (medium)"; "SLOC (ours)" ] in
  let rows =
    List.map
      (fun name ->
        let inst = Registry.find Registry.Medium name in
        [ name; inst.Registry.input_desc; sloc name ])
      all_benchmarks
  in
  Nowa_util.Table.print ~header rows

let figure7 ~opts () =
  section "Figure 7: speedup of all 12 benchmarks (Nowa / Fibril / Cilk Plus / TBB)";
  let models = [ CM.nowa; CM.fibril; CM.cilkplus; CM.tbb ] in
  sim_table ~opts ~benchmarks:all_benchmarks ~models;
  subsection "cross-benchmark summary at 256 simulated threads (geomean speedup ratio, nowa/x)";
  let summary =
    sim_summary ~opts ~benchmarks:all_benchmarks ~baseline:CM.nowa ~workers:256
      [ CM.fibril; CM.cilkplus; CM.tbb ]
  in
  List.iter
    (fun (name, ratio) -> Printf.printf "  nowa vs %-10s: %.2fx\n" name (1.0 /. ratio))
    summary;
  (* The paper excludes knapsack from averages (order-dependent work). *)
  let no_knap = List.filter (fun b -> b <> "knapsack") all_benchmarks in
  let summary' =
    sim_summary ~opts ~benchmarks:no_knap ~baseline:CM.nowa ~workers:256
      [ CM.fibril; CM.cilkplus; CM.tbb ]
  in
  List.iter
    (fun (name, ratio) ->
      Printf.printf "  nowa vs %-10s: %.2fx (excluding knapsack)\n" name (1.0 /. ratio))
    summary';
  real_table ~opts ~benchmarks:all_benchmarks ~runtimes:Nowa.Presets.figure7_set

(* Figure 8 benchmarks: the eight the paper plots. *)
let figure8_benchmarks =
  [ "cholesky"; "lu"; "heat"; "fib"; "matmul"; "nqueens"; "integrate"; "rectmul" ]

let figure8 ~opts () =
  section "Figure 8: impact of madvise() on the practical cactus-stack solution";
  Printf.printf
    "(real runs on the Nowa preset; madvise modelled by the stack-pool \
     substrate at %d ns per call)\n"
    (Nowa.Config.default ()).Nowa.Config.madvise_cost_ns;
  let workers = List.fold_left max 1 opts.real_workers in
  let with_madvise mode c =
    { c with Nowa.Config.madvise = true; madvise_mode = mode }
  in
  let header =
    [
      "benchmark"; "w/o madvise (s)"; "MADV_FREE (s)"; "MADV_DONTNEED (s)";
      "free slowdown"; "dontneed slowdown";
    ]
  in
  let rows =
    List.map
      (fun bench ->
        let t_off =
          Stats.mean (measure_real ~opts (module Nowa.Presets.Nowa) bench workers)
        in
        let t_free =
          Stats.mean
            (measure_real ~patch:(with_madvise Nowa.Config.Madv_free) ~opts
               (module Nowa.Presets.Nowa) bench workers)
        in
        let t_dontneed =
          Stats.mean
            (measure_real ~patch:(with_madvise Nowa.Config.Madv_dontneed) ~opts
               (module Nowa.Presets.Nowa) bench workers)
        in
        [
          bench;
          Printf.sprintf "%.4f" t_off;
          Printf.sprintf "%.4f" t_free;
          Printf.sprintf "%.4f" t_dontneed;
          Printf.sprintf "%.2fx" (t_free /. t_off);
          Printf.sprintf "%.2fx" (t_dontneed /. t_off);
        ])
      figure8_benchmarks
  in
  Nowa_util.Table.print ~header rows

let table2 ~opts () =
  section "Table II: max RSS of the stack pool with and without madvise()";
  let workers = List.fold_left max 1 opts.real_workers in
  let page_kib = 4 in
  let rss_of bench madvise =
    let patch c = { c with Nowa.Config.madvise } in
    ignore (measure_real ~patch ~opts (module Nowa.Presets.Nowa) bench workers);
    match Nowa.Presets.Nowa.last_metrics () with
    | Some { Nowa.Metrics.stacks = Some s; _ } ->
      (s.Nowa.Metrics.max_rss_pages, s.Nowa.Metrics.madvise_calls)
    | _ -> (0, 0)
  in
  let header =
    [ "benchmark"; "no madvise (KiB)"; "madvise (KiB)"; "delta"; "madvise calls" ]
  in
  let rows =
    List.map
      (fun bench ->
        let off, _ = rss_of bench false in
        let on, calls = rss_of bench true in
        [
          bench;
          string_of_int (off * page_kib);
          string_of_int (on * page_kib);
          string_of_int ((on - off) * page_kib);
          string_of_int calls;
        ])
      figure8_benchmarks
  in
  Nowa_util.Table.print ~header rows

let figure9_benchmarks = [ "cholesky"; "fib"; "nqueens"; "matmul" ]

let figure9 ~opts () =
  section "Figure 9: the CL queue versus the THE queue inside Nowa";
  sim_table ~opts ~benchmarks:figure9_benchmarks
    ~models:[ CM.nowa; CM.nowa_the; CM.fibril ];
  real_table ~opts ~benchmarks:figure9_benchmarks
    ~runtimes:[ (module Nowa.Presets.Nowa); (module Nowa.Presets.Nowa_the); (module Nowa.Presets.Fibril) ]

let figure10 ~opts () =
  section "Figure 10: Nowa compared against the OpenMP runtime models";
  let models = [ CM.nowa; CM.tbb; CM.gomp; CM.lomp_untied; CM.lomp_tied ] in
  sim_table ~opts ~benchmarks:all_benchmarks ~models;
  subsection "cross-benchmark summary at 256 simulated threads";
  let summary =
    sim_summary ~opts ~benchmarks:all_benchmarks ~baseline:CM.nowa ~workers:256
      [ CM.gomp; CM.lomp_untied; CM.lomp_tied ]
  in
  List.iter
    (fun (name, ratio) -> Printf.printf "  nowa vs %-12s: %.2fx\n" name (1.0 /. ratio))
    summary;
  real_table ~opts ~benchmarks:[ "fib"; "nqueens"; "quicksort" ]
    ~runtimes:Nowa.Presets.figure10_set

let table3 ~opts () =
  section "Table III: execution times at 256 (simulated) threads";
  let models = [ CM.nowa; CM.lomp_untied; CM.lomp_tied ] in
  let header =
    "benchmark" :: List.map (fun m -> m.CM.cname ^ " (s)") models
  in
  let rows =
    List.map
      (fun bench ->
        bench
        :: List.map
             (fun m ->
               let r = sim_speedup ~opts m bench 256 in
               Printf.sprintf "%.5f" (r.Nowa_dag.Wsim.makespan_ns /. 1e9))
             models)
      all_benchmarks
  in
  Nowa_util.Table.print ~header rows

(* Beyond the paper: isolate each design axis. *)
let ablation ~opts () =
  section "Ablation A: the deque inside the wait-free runtime (CL vs THE vs ABP)";
  real_table ~opts ~benchmarks:[ "fib"; "nqueens" ]
    ~runtimes:
      [
        (module Nowa.Presets.Nowa);
        (module Nowa.Presets.Nowa_the);
        (module Nowa.Presets.Nowa_abp);
      ];
  section "Ablation B: the strand counter on a fixed (THE) deque (wait-free vs lock-based)";
  real_table ~opts ~benchmarks:[ "fib"; "nqueens" ]
    ~runtimes:[ (module Nowa.Presets.Nowa_the); (module Nowa.Presets.Fibril) ];
  section "Ablation C: victim-selection policy (random vs round-robin)";
  let workers_a = List.fold_left max 1 opts.real_workers in
  List.iter
    (fun bench ->
      let t_random =
        Stats.mean (measure_real ~opts (module Nowa.Presets.Nowa) bench workers_a)
      in
      let t_rr =
        Stats.mean
          (measure_real
             ~patch:(fun c -> { c with Nowa.Config.victim_policy = Nowa.Config.Round_robin })
             ~opts (module Nowa.Presets.Nowa) bench workers_a)
      in
      Printf.printf "  %-10s random %8.3f ms, round-robin %8.3f ms (%.2fx)\n"
        bench (t_random *. 1e3) (t_rr *. 1e3) (t_rr /. t_random))
    [ "fib"; "nqueens" ];
  section "Ablation D: spawn-order sensitivity of knapsack (Section V-A)";
  let inst = Registry.find opts.real_size "knapsack" in
  ignore inst;
  let items = Nowa_kernels.Knapsack.make_items ~seed:11 22 in
  let workers = List.fold_left max 1 opts.real_workers in
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let module K = Nowa_kernels.Knapsack.Make (R) in
      let conf = Nowa.Config.with_workers workers in
      let time flipped =
        let t, v =
          R.run ~conf (fun () ->
              Nowa_util.Clock.time_it (fun () -> K.run ~flipped items))
        in
        (t, v)
      in
      let t_orig, v1 = time false in
      let t_flip, v2 = time true in
      assert (v1 = v2);
      Printf.printf
        "  %-12s original order %8.3f ms, flipped %8.3f ms (flip is %.2fx the \
         original)\n"
        R.name (t_orig *. 1e3) (t_flip *. 1e3) (t_flip /. t_orig))
    [ (module Nowa.Presets.Nowa : Nowa.RUNTIME); (module Nowa.Presets.Tbb) ]

(* Beyond the paper: per-worker event timelines (open the .trace.json
   files in chrome://tracing or ui.perfetto.dev) plus the strand-level
   summaries — utilization, work-vs-scheduler split, steal-latency tail —
   for a real run and a simulated 256-worker replay of each benchmark. *)
let traces ~opts () =
  section "Traces: per-worker timelines (Perfetto JSON)";
  let workers = List.fold_left max 1 opts.real_workers in
  List.iter
    (fun bench ->
      let file =
        Nowa_util.Artifacts.path
          (Printf.sprintf "nowa-%s-%dw.trace.json" bench workers)
      in
      (match trace_real ~opts (module Nowa.Presets.Nowa) bench workers file with
      | Some summary ->
        Printf.printf "\n%s on nowa, %d workers -> %s\n" bench workers file;
        Format.printf "%a@." Nowa_trace.Trace_analysis.pp summary
      | None -> Printf.eprintf "  %s: runtime produced no trace\n" bench);
      let sim_file =
        Nowa_util.Artifacts.path
          (Printf.sprintf "wsim-nowa-%s-256w.trace.json" bench)
      in
      let r, summary = trace_sim ~opts CM.nowa bench 256 sim_file in
      Printf.printf "\n%s on wsim:nowa, 256 virtual workers -> %s (makespan %.3f ms)\n"
        bench sim_file
        (r.Nowa_dag.Wsim.makespan_ns /. 1e6);
      Format.printf "%a@." Nowa_trace.Trace_analysis.pp summary)
    [ "fib"; "nqueens" ]

(* -- scalability: Cilkview-style burdened analysis vs. the simulator --- *)

(* For each benchmark: burdened work/span analysis of the recorded DAG
   (burden = the Nowa cost model's strand-migration cost), the
   work/span-law upper bound and burdened lower estimate per worker
   count, and the wsim-measured speedup between them — then the top
   strands on the burdened critical path.  A measured speedup below the
   lower estimate means overhead the DAG does not capture; burdened
   parallelism far below plain parallelism means the workload is
   spawn-granularity-bound. *)
let scalability ~opts () =
  section "Scalability profile (Cilkview-style burdened DAG analysis)";
  let burden = Nowa_dag.Scalability.burden_of_cost_model CM.nowa in
  let workers = [ 1; 2; 4; 8; 16; 64; 256 ] in
  List.iter
    (fun bench ->
      let dag = recorded_dag ~opts bench in
      let inst = Registry.find (sim_size_for ~opts bench) bench in
      let r = Nowa_dag.Scalability.analyze ~burden_ns:burden dag in
      subsection
        (Printf.sprintf "%s (%s, burden=%.0f ns/edge)" bench
           inst.Registry.input_desc burden);
      Format.printf "%a@." Nowa_dag.Scalability.pp r;
      let rows =
        List.map
          (fun p ->
            let sim = (sim_speedup ~opts CM.nowa bench p).Nowa_dag.Wsim.speedup in
            [
              string_of_int p;
              fmt_f2 (Nowa_dag.Scalability.bound_lower r ~workers:p);
              fmt_f2 sim;
              fmt_f2 (Nowa_dag.Scalability.bound_upper r ~workers:p);
            ])
          workers
      in
      Nowa_util.Table.print
        ~header:[ "threads"; "lower est."; "wsim(nowa)"; "upper bound" ]
        rows;
      let strands =
        Nowa_dag.Scalability.critical_strands ~burden_ns:burden ~top:5 dag
      in
      Printf.printf "top strands on the burdened critical path:\n";
      List.iter
        (fun (s : Nowa_dag.Scalability.strand) ->
          Printf.printf "  vertex %-9d %10.0f ns  %5.1f%% of burdened span\n"
            s.Nowa_dag.Scalability.vertex s.Nowa_dag.Scalability.work_ns
            (100.0 *. s.Nowa_dag.Scalability.share))
        strands)
    [ "fib"; "matmul" ]

(* -- causal profile: time ledger, convoys, what-if sensitivity ----------- *)

module Wsim = Nowa_dag.Wsim
module Convoy = Nowa_dag.Convoy
module Causal = Nowa_dag.Causal

(* Coarser factor grid than [Causal.default_factors]: the experiment runs
   |factors| x |knobs| x |models| x |benchmarks| simulations. *)
let causal_factors = [ 0.0; 0.5; 1.0; 2.0 ]

let causal_models = [ CM.nowa; CM.cilkplus; CM.gomp ]
let causal_benchmarks = [ "fib"; "nqueens" ]

let conservation_rel_err (l : Wsim.ledger) ~workers =
  let expect = float_of_int workers *. l.Wsim.horizon_ns in
  if expect > 0.0 then Float.abs (Wsim.ledger_total l -. expect) /. expect
  else 0.0

let causal ~opts () =
  section "Causal profile: time ledger, convoy detection, what-if sensitivity";
  let workers = List.fold_left max 1 opts.sim_workers in
  let summary = Buffer.create 1024 in
  Buffer.add_string summary "[\n";
  let first_entry = ref true in
  (* lock-cost zero-gain per (bench, model), for the headline comparison *)
  let lock_gains = ref [] in
  List.iter
    (fun bench ->
      let dag = recorded_dag ~opts bench in
      let out = Buffer.create 8192 in
      Printf.bprintf out "{ \"bench\": %S, \"workers\": %d, \"models\": [\n"
        bench workers;
      let first_model = ref true in
      List.iter
        (fun (m : CM.t) ->
          subsection
            (Printf.sprintf "%s under %s, %d virtual workers" bench m.CM.cname
               workers);
          let r = Wsim.simulate ~detail:true m ~workers dag in
          Format.printf "%a@." Wsim.pp_ledger r.Wsim.ledger;
          let header =
            [ "resource"; "acq"; "contended"; "wait (us)"; "hold (us)" ]
          in
          let rows =
            List.filter_map
              (fun (s : Wsim.resource_stats) ->
                if s.Wsim.acquisitions = 0 then None
                else
                  Some
                    [
                      Wsim.resource_class_name s.Wsim.rclass;
                      string_of_int s.Wsim.acquisitions;
                      string_of_int s.Wsim.contended;
                      Printf.sprintf "%.1f" (s.Wsim.wait_ns /. 1e3);
                      Printf.sprintf "%.1f" (s.Wsim.hold_ns /. 1e3);
                    ])
              r.Wsim.resources
          in
          Nowa_util.Table.print ~header rows;
          let convoys = Convoy.detect r.Wsim.acquisitions in
          if convoys = [] then
            Printf.printf "no convoys (queue depth never reached 4)\n"
          else begin
            Printf.printf "top convoys:\n";
            List.iter (fun c -> Format.printf "  %a@." Convoy.pp c) convoys
          end;
          let knobs =
            Causal.model_knobs
            @
            match Causal.hottest_strand dag with
            | Some v -> [ Causal.Strand_work v ]
            | None -> []
          in
          let ranking =
            Causal.rank ~factors:causal_factors m ~workers dag knobs
          in
          Printf.printf "what-if sensitivity (virtual speedup of zeroing each cost):\n";
          List.iter
            (fun (x : Causal.experiment) ->
              Printf.printf "  %-12s %+7.2f%%\n"
                (Causal.knob_name x.Causal.knob)
                x.Causal.zero_gain_pct)
            ranking;
          (match
             List.find_opt (fun x -> x.Causal.knob = Causal.Lock_cost) ranking
           with
          | Some x ->
            lock_gains := (bench, m.CM.cname, x.Causal.zero_gain_pct) :: !lock_gains
          | None -> ());
          (* -- JSON ------------------------------------------------- *)
          if not !first_model then Buffer.add_string out ",\n";
          first_model := false;
          let l = r.Wsim.ledger in
          let err = conservation_rel_err l ~workers:r.Wsim.workers in
          Printf.bprintf out
            "  { \"model\": %S, \"makespan_ns\": %.1f, \"speedup\": %.3f,\n"
            m.CM.cname r.Wsim.makespan_ns r.Wsim.speedup;
          Printf.bprintf out "    \"ledger\": { %s },\n"
            (String.concat ", "
               (List.map
                  (fun c ->
                    Printf.sprintf "%S: %.1f" (Wsim.category_name c)
                      (Wsim.ledger_category l c))
                  Wsim.categories));
          Printf.bprintf out
            "    \"conservation_rel_err\": %.3e, \"partial\": %b,\n" err
            l.Wsim.lpartial;
          Printf.bprintf out "    \"convoys\": [ %s ],\n"
            (String.concat ", "
               (List.map
                  (fun (c : Convoy.t) ->
                    Printf.sprintf
                      "{ \"resource\": %S, \"start_ns\": %.1f, \
                       \"duration_ns\": %.1f, \"peak\": %d, \
                       \"participants\": %d, \"serialized_ns\": %.1f }"
                      (Convoy.resource_name c.Convoy.resource)
                      c.Convoy.start_ns (Convoy.duration_ns c) c.Convoy.peak
                      c.Convoy.participants c.Convoy.serialized_ns)
                  convoys));
          Printf.bprintf out "    \"sensitivity\": [ %s ] }"
            (String.concat ",\n      "
               (List.map
                  (fun (x : Causal.experiment) ->
                    Printf.sprintf
                      "{ \"knob\": %S, \"zero_gain_pct\": %.3f, \"points\": [ %s ] }"
                      (Causal.knob_name x.Causal.knob)
                      x.Causal.zero_gain_pct
                      (String.concat ", "
                         (List.map
                            (fun (p : Causal.point) ->
                              Printf.sprintf
                                "{ \"factor\": %g, \"makespan_ns\": %.1f, \
                                 \"gain_pct\": %.3f }"
                                p.Causal.factor p.Causal.makespan_ns
                                p.Causal.gain_pct)
                            x.Causal.points)))
                  ranking));
          let top =
            match ranking with
            | x :: _ -> Causal.knob_name x.Causal.knob
            | [] -> "none"
          in
          let lock_gain =
            match
              List.find_opt (fun x -> x.Causal.knob = Causal.Lock_cost) ranking
            with
            | Some x -> x.Causal.zero_gain_pct
            | None -> 0.0
          in
          if not !first_entry then Buffer.add_string summary ",\n";
          first_entry := false;
          Printf.bprintf summary
            "  { \"bench\": %S, \"model\": %S, \"workers\": %d, \
             \"makespan_ns\": %.1f, \"lock_cost_zero_gain_pct\": %.3f, \
             \"top_knob\": %S, \"convoys\": %d, \"conservation_rel_err\": \
             %.3e }"
            bench m.CM.cname workers r.Wsim.makespan_ns lock_gain top
            (List.length convoys) err)
        causal_models;
      Buffer.add_string out "\n] }\n";
      let file =
        Nowa_util.Artifacts.path (Printf.sprintf "causal-%s.json" bench)
      in
      let oc = open_out file in
      Buffer.output_buffer oc out;
      close_out oc;
      Printf.printf "\nwrote %s\n" file)
    causal_benchmarks;
  Buffer.add_string summary "\n]\n";
  let oc = open_out "BENCH_causal.json" in
  Buffer.output_buffer oc summary;
  close_out oc;
  Printf.printf "wrote BENCH_causal.json\n";
  subsection "lock-cost sensitivity across models (virtual speedup of lock_ns -> 0)";
  List.iter
    (fun (bench, model, gain) ->
      Printf.printf "  %-10s %-10s %+7.2f%%\n" bench model gain)
    (List.rev !lock_gains)

(* -- elastic idle path: what do idle workers cost? ----------------------- *)

(* CPU-time accounting of the three idle policies ([Config.idle_policy]).
   Serial-heavy phase: one worker spins inside the runtime for a fixed
   interval while the others have nothing to steal — the per-policy CPU
   delta (Unix.times, the getrusage stand-in) is the cost of keeping the
   idle workers around: a spinning worker burns a full core, a parked one
   ~nothing.  Saturated phase: fib keeps every worker busy, checking that
   the park machinery costs no wall-clock when there is no idle time to
   elide.  Also dumps a Perfetto trace of a park-heavy run so the
   Park/Unpark slices can be inspected. *)

let idle_policies =
  [
    ("spin", Nowa.Config.Spin);
    ("yield", Nowa.Config.Yield_after 512);
    ("park", Nowa.Config.Park_after 512);
  ]

let idle ~opts () =
  section "Idle experiment: spin vs yield vs park (elastic idle path)";
  let module R = Nowa.Presets.Nowa in
  let serial_ns = 50_000_000 in
  let worker_counts =
    match List.filter (fun w -> w > 1) opts.real_workers with
    | [] -> [ 4 ]
    | ws -> ws
  in
  let out = Buffer.create 4096 in
  Buffer.add_string out "[\n";
  let first = ref true in
  let record ~mode ~policy ~workers ~wall ~cpu ~parks ~wakeups =
    if not !first then Buffer.add_string out ",\n";
    first := false;
    Printf.bprintf out
      "  { \"mode\": %S, \"policy\": %S, \"workers\": %d, \"wall_s\": %.6f, \
       \"cpu_s\": %.6f, \"cpu_per_worker_s\": %.6f, \"parks\": %d, \
       \"wakeups\": %d }"
      mode policy workers wall cpu
      (cpu /. float_of_int workers)
      parks wakeups
  in
  let parks_wakeups () =
    match R.last_metrics () with
    | Some m ->
      ( Nowa.Metrics.total m Nowa.Metrics.Parks,
        Nowa.Metrics.total m Nowa.Metrics.Wakeups )
    | None -> (0, 0)
  in
  subsection
    (Printf.sprintf "serial-heavy: %.0f ms of work on one worker, the rest idle"
       (float_of_int serial_ns /. 1e6));
  let header =
    [ "policy"; "workers"; "wall (s)"; "cpu (s)"; "cpu/worker"; "parks"; "wakeups" ]
  in
  let rows = ref [] in
  let serial_cpu = ref [] in
  List.iter
    (fun workers ->
      List.iter
        (fun (pname, policy) ->
          let conf =
            {
              (Nowa.Config.with_workers workers) with
              Nowa.Config.idle_policy = policy;
            }
          in
          R.run ~conf (fun () -> ()) (* warm-up: domain spawn paths *);
          let cpu0 = Nowa_util.Cpu.process_cpu_time () in
          let wall, () =
            Nowa_util.Clock.time_it (fun () ->
                R.run ~conf (fun () -> Nowa_util.Clock.spin_ns serial_ns))
          in
          let cpu = Nowa_util.Cpu.process_cpu_time () -. cpu0 in
          let parks, wakeups = parks_wakeups () in
          serial_cpu := ((pname, workers), cpu) :: !serial_cpu;
          rows :=
            [
              pname; string_of_int workers;
              Printf.sprintf "%.4f" wall;
              Printf.sprintf "%.4f" cpu;
              Printf.sprintf "%.4f" (cpu /. float_of_int workers);
              string_of_int parks; string_of_int wakeups;
            ]
            :: !rows;
          record ~mode:"serial" ~policy:pname ~workers ~wall ~cpu ~parks
            ~wakeups)
        idle_policies)
    worker_counts;
  Nowa_util.Table.print ~header (List.rev !rows);
  List.iter
    (fun workers ->
      match
        ( List.assoc_opt ("spin", workers) !serial_cpu,
          List.assoc_opt ("park", workers) !serial_cpu )
      with
      | Some spin, Some park when park > 0.0 ->
        Printf.printf
          "  %d workers: parked idle CPU is %.2fx the spinning idle CPU \
           (%.4f s vs %.4f s)\n"
          workers (park /. spin) park spin
      | _ -> ())
    worker_counts;
  subsection "saturated: fib keeps every worker busy (wall-clock parity check)";
  let rows = ref [] in
  List.iter
    (fun workers ->
      List.iter
        (fun (pname, policy) ->
          let patch c = { c with Nowa.Config.idle_policy = policy } in
          let cpu0 = Nowa_util.Cpu.process_cpu_time () in
          let times = measure_real ~patch ~opts (module R) "fib" workers in
          (* the CPU delta covers warm-up + runs repetitions *)
          let cpu =
            (Nowa_util.Cpu.process_cpu_time () -. cpu0)
            /. float_of_int (opts.runs + 1)
          in
          let wall = Stats.mean times in
          let parks, wakeups = parks_wakeups () in
          rows :=
            [
              pname; string_of_int workers;
              Printf.sprintf "%.4f" wall;
              Printf.sprintf "%.4f" cpu;
              Printf.sprintf "%.4f" (cpu /. float_of_int workers);
              string_of_int parks; string_of_int wakeups;
            ]
            :: !rows;
          record ~mode:"saturated" ~policy:pname ~workers ~wall ~cpu ~parks
            ~wakeups)
        idle_policies)
    worker_counts;
  Nowa_util.Table.print ~header (List.rev !rows);
  Buffer.add_string out "\n]\n";
  let oc = open_out "BENCH_idle.json" in
  Buffer.output_buffer oc out;
  close_out oc;
  Printf.printf "wrote BENCH_idle.json\n";
  (* A park-heavy traced run: the serial phase under an aggressive park
     threshold guarantees Park/Unpark events in the Perfetto output. *)
  let workers = List.fold_left max 2 worker_counts in
  let conf =
    {
      (Nowa.Config.with_workers workers) with
      Nowa.Config.idle_policy = Nowa.Config.Park_after 64;
      trace_capacity = default_trace_capacity;
    }
  in
  ignore (R.run ~conf (fun () -> Nowa_util.Clock.spin_ns serial_ns));
  (match R.last_trace () with
  | Some tr ->
    let path = Nowa_util.Artifacts.path "idle-park.trace.json" in
    Nowa_trace.Perfetto.write_file
      ~process_name:(Printf.sprintf "nowa:idle-park/%dw" workers)
      path tr;
    Printf.printf "wrote %s\n" path
  | None -> Printf.eprintf "idle: runtime produced no trace\n")

(* Hot-path cost trajectory.  Micro cells, each reported as min-of-N
   (jitter floor) and p50 (typical), after one untimed warmup run so
   first-run effect/fiber setup cost does not pollute the distribution:

   - spawn_sync: a 1-worker run of the spawn-bound kernel (fib 15),
     where every spawn is steal-free; under lazy exposure nearly all of
     them run their child inline and only the spine's few spawns take
     the exposed path.  elapsed/spawns is the paper's spawn+sync
     hot-path cost;
   - exposed_spawn_sync: a loop on 1 worker whose every iteration opens
     a scope with one spawn_unit.  Each spawn is its frame's first and
     finds an empty deque, so it pays the full exposed protocol (deque
     push, child on a fresh fiber, pop, resume) plus the scope's entry
     and exit; this row keeps that path gated now that fib rarely takes
     it.  (A flat loop in one scope would run nearly every spawn inline:
     see flat_spawn.)  Its inlined count is recorded and must be 0;
   - flat_spawn: a flat loop of spawn_unit ignore in one scope, on 1
     worker and on 2 under Spin, timed inside the run.  After the
     frame's first spawn every spawn finds an empty deque, so this is
     the re-exposure deadline's inline path, the one a paced KV request
     takes and no other cell reaches (fib spawns from a non-empty deque;
     the exposed cell's spawns are all first exposures).  Each column
     reports its run's untaken exposures (exposed spawns minus lost
     continuations) beside the time.  Recorded, neither ratcheted nor
     budgeted: alone in its pool a worker reads the clock at every such
     spawn by design;
   - alloc_per_spawn: Gc.minor_words delta across the fib run divided
     by spawns — the allocation-free-spawn ratchet (ISSUE 9);
   - steal: direct Chase-Lev steal drain, per-element;
   - false_sharing: 2-domain ping-pong on two atomics allocated
     back-to-back vs through Padding.atomic, each pair promoted by a
     minor GC first, as a run's long-lived cells are — the isolated
     cost is the ratcheted number, the contended/isolated separation
     shows what the padding sweep buys, and the isolated pair's
     promoted distance is recorded (isolated_gap_bytes, isolated_apart
     when it is at least a cache line);
   - inline_overhead: fib at the registry's Small size on 1 worker,
     Presets.Nowa over the serial elision, interleaved, min of 15 each.
     All but the spine's few spawns run inline, so the ratio of minima
     is the inline path's tax per node, gated at an absolute 3.5x.  The
     elision's own tax over the hand-written Fib.serial is recorded
     beside it, ungated;

   plus two end-to-end cells on a mix-A open-loop KV run (500 records,
   1,500 requests, 2,000 req/s, 2 workers, Park_after 512):

   - anatomy_overhead: the request-span ledgers on vs off, min of 3
     runs per mode on the total p50 — the instrumentation must stay
     within 10% of the uninstrumented run, and every ledger of the
     anatomy-on runs must balance (conservation violations = 0);
   - wedge_detection: a combiner wedge injected under a live watchdog
     must surface as a convoy verdict.

   Emits BENCH_micro.json.  When a committed baseline exists the new
   numbers are compared against it; NOWA_MICRO_GATE=1 makes a
   regression past NOWA_MICRO_TOLERANCE (default 10%) on the
   spawn_sync/exposed_spawn_sync/steal minima, alloc_per_spawn words,
   an exposed cell that inlined anything, or the isolated
   false-sharing cost, padded cells less than a cache line apart once
   promoted, a blown inline or anatomy budget, an unbalanced
   ledger, or a missed wedge fatal — the CI perf gate. *)

(* [field] of the row tagged [kind] in a BENCH_micro.json row list. *)
let baseline_value rows ~kind ~field =
  let module J = Nowa_benchmark.Json in
  List.find_map
    (function
      | J.Obj kvs when List.assoc_opt "kind" kvs = Some (J.Str kind) -> (
        match List.assoc_opt field kvs with Some (J.Num f) -> Some f | _ -> None)
      | _ -> None)
    rows

let hotpath ~opts () =
  section
    "Hot path: spawn/sync/steal costs, inline and anatomy tax, wedge \
     detection";
  ignore opts;
  let module R = Nowa.Presets.Nowa in
  let baseline =
    if Sys.file_exists "BENCH_micro.json" then
      let module J = Nowa_benchmark.Json in
      Some
        (J.to_list
           (J.parse
              (In_channel.with_open_bin "BENCH_micro.json" In_channel.input_all)))
    else None
  in
  let reps = 5 in
  (* min-of-N damps scheduler jitter; p50 is the honest "typical" cost. *)
  let summarize samples =
    let a = Array.of_list samples in
    Array.sort compare a;
    (a.(0), a.(Array.length a / 2))
  in
  let spawn_cell () =
    let inst = Registry.find Registry.Test "fib" in
    let thunk = inst.Registry.make_thunk (module R) in
    let conf = Nowa.Config.with_workers 1 in
    (* A single fib-15 run is ~250us — jitter-bound on a small shared
       host.  Each sample times a batch of runs (a few ms) instead. *)
    let batch = 20 in
    let one () =
      let w0 = Gc.minor_words () in
      let t0 = Nowa_util.Clock.now_ns () in
      for _ = 1 to batch do
        ignore (R.run ~conf thunk)
      done;
      let dt = float_of_int (Nowa_util.Clock.now_ns () - t0) in
      let dw = Gc.minor_words () -. w0 in
      let spawns =
        batch
        *
        match R.last_metrics () with
        | Some m -> Nowa.Metrics.total m Nowa.Metrics.Spawns
        | None -> 0
      in
      if spawns = 0 then None
      else Some (dt /. float_of_int spawns, dw /. float_of_int spawns)
    in
    (* Warmup: the first runs in a process pay one-off effect/fiber and
       stack-pool setup (~60% over steady state) — never time them. *)
    ignore (one ());
    let times = ref [] and allocs = ref [] in
    for _ = 1 to reps do
      match one () with
      | Some (t, a) ->
        times := t :: !times;
        allocs := a :: !allocs
      | None -> ()
    done;
    let mn, p50 = summarize !times in
    let alloc_min, _ = summarize !allocs in
    (mn, p50, alloc_min)
  in
  (* Returns min/p50 ns per spawn, the minor words per exposed spawn,
     and the number of spawns that ran inline across all samples (0
     unless the exposure rule broke). *)
  let exposed_cell () =
    let n = 20_000 in
    let conf = Nowa.Config.with_workers 1 in
    let body () =
      for _ = 1 to n do
        R.scope (fun sc -> R.spawn_unit sc ignore)
      done
    in
    let inlined = ref 0 and words = ref infinity in
    let one () =
      let w0 = Gc.minor_words () in
      let t0 = Nowa_util.Clock.now_ns () in
      R.run ~conf body;
      let dt = float_of_int (Nowa_util.Clock.now_ns () - t0) in
      words := Float.min !words ((Gc.minor_words () -. w0) /. float_of_int n);
      (match R.last_metrics () with
      | Some m ->
        inlined := !inlined + Nowa.Metrics.total m Nowa.Metrics.Inlined
      | None -> ());
      dt /. float_of_int n
    in
    ignore (one ());
    let samples = List.init reps (fun _ -> one ()) in
    let mn, p50 = summarize samples in
    (mn, p50, !words, !inlined)
  in
  (* Min and p50 ns per spawn of the flat loop on [workers], and the
     untaken exposures of the run that set the minimum. *)
  let flat_cell workers =
    let n = 200_000 in
    let conf =
      {
        (Nowa.Config.with_workers workers) with
        Nowa.Config.idle_policy = Nowa.Config.Spin;
      }
    in
    let body () =
      let t0 = Nowa_util.Clock.now_ns () in
      R.scope (fun sc ->
          for _ = 1 to n do
            R.spawn_unit sc ignore
          done);
      Nowa_util.Clock.now_ns () - t0
    in
    let one () =
      let dt = R.run ~conf body in
      let untaken =
        match R.last_metrics () with
        | Some m ->
          let total = Nowa.Metrics.total m in
          total Nowa.Metrics.Spawns
          - total Nowa.Metrics.Inlined
          - total Nowa.Metrics.Lost_continuations
        | None -> 0
      in
      (float_of_int dt /. float_of_int n, untaken)
    in
    ignore (one ());
    let samples = List.init reps (fun _ -> one ()) in
    let mn, p50 = summarize (List.map fst samples) in
    (mn, p50, List.assoc mn samples)
  in
  let steal_cell () =
    let module Q = Nowa_deque.Chase_lev.Make (struct
      type t = int

      let dummy = 0
    end) in
    let n = 20_000 in
    let samples = ref [] in
    for _ = 1 to reps do
      let q = Q.create ~capacity:1024 () in
      for i = 1 to n do
        Q.push_bottom q i
      done;
      let t0 = Nowa_util.Clock.now_ns () in
      let got = ref 0 in
      let misses = ref 0 in
      while !got < n && !misses = 0 do
        match Q.steal q ~on_commit:(fun _ -> ()) with
        | Some _ -> incr got
        | None -> incr misses (* impossible when quiescent *)
      done;
      let dt = float_of_int (Nowa_util.Clock.now_ns () - t0) in
      if !got = n then samples := (dt /. float_of_int n) :: !samples
    done;
    summarize !samples
  in
  (* Two domains hammer independent atomics.  Allocated back-to-back the
     two words share a cache line, at birth and after promotion, and
     every incr invalidates the sibling's line; through Padding.atomic
     the padding inside each block keeps them apart.  The same
     pathology this repo sweeps out of the deque top/bottom words, the
     Sleepers word and the per-worker metric records.  Each pair is
     promoted before it is timed, as a run's cells outlive the first
     minor collection. *)
  let false_sharing_cell () =
    let iters = 1_000_000 in
    let promoted a b =
      Gc.minor ();
      (a, b)
    in
    (* A cell's int reading, doubled, is its field's address or a few
       bytes below it (how the compiler folds the tag), and fields are
       word-aligned: enough for distances and for the line a cell is on. *)
    let addr c = 2 * (Obj.magic c : int) in
    let gap a b = abs (addr a - addr b) in
    (* Back-to-back cells stay 16 bytes apart once promoted, but one pair
       in four straddles a line boundary: draw again until they share a
       line, so the contended pair contends. *)
    let rec sharing tries =
      let a, b = promoted (Atomic.make 0) (Atomic.make 0) in
      if (addr a + 7) / 64 = (addr b + 7) / 64 || tries = 0 then (a, b)
      else sharing (tries - 1)
    in
    let run_pair a b =
      let worker c () =
        for _ = 1 to iters do
          Atomic.incr c
        done
      in
      let t0 = Nowa_util.Clock.now_ns () in
      let d1 = Domain.spawn (worker a) in
      let d2 = Domain.spawn (worker b) in
      Domain.join d1;
      Domain.join d2;
      float_of_int (Nowa_util.Clock.now_ns () - t0) /. float_of_int iters
    in
    (* Untimed warmup pair to absorb domain-spawn setup. *)
    ignore (run_pair (Atomic.make 0) (Atomic.make 0));
    let contended = ref [] and isolated = ref [] and isolated_gap = ref max_int in
    for _ = 1 to reps do
      let a, b = sharing 16 in
      contended := run_pair a b :: !contended;
      let a, b = promoted (Nowa_util.Padding.atomic 0) (Nowa_util.Padding.atomic 0) in
      isolated_gap := Int.min !isolated_gap (gap a b);
      isolated := run_pair a b :: !isolated
    done;
    (* Report min-of-N for both: the ping-pong loop is deterministic, so
       anything above the minimum is host noise, not sharing cost. *)
    let cont, _ = summarize !contended in
    let isol, _ = summarize !isolated in
    (cont, isol, !isolated_gap)
  in
  let fib_n = 24 (* fib's Registry.Small input *) in
  let inline_cell () =
    let module S = Nowa_kernels.Kernel_intf.Serial in
    let module Kn = Nowa_kernels.Fib.Make (R) in
    let module Ks = Nowa_kernels.Fib.Make (S) in
    let conf = Nowa.Config.with_workers 1 in
    let time f =
      let t0 = Nowa_util.Clock.now_ns () in
      ignore (Sys.opaque_identity (f ()));
      float_of_int (Nowa_util.Clock.now_ns () - t0)
    in
    let nowa_min = ref infinity and elision_min = ref infinity in
    let serial_min = ref infinity in
    (* Round 0 is the untimed warmup. *)
    for round = 0 to 15 do
      let tn = time (fun () -> R.run ~conf (fun () -> Kn.run fib_n)) in
      let te = time (fun () -> S.run (fun () -> Ks.run fib_n)) in
      let ts = time (fun () -> Nowa_kernels.Fib.serial fib_n) in
      if round > 0 then begin
        nowa_min := Float.min !nowa_min tn;
        elision_min := Float.min !elision_min te;
        serial_min := Float.min !serial_min ts
      end
    done;
    (!nowa_min, !elision_min, !serial_min)
  in
  subsection
    (Printf.sprintf "per-operation cost (min and p50 of %d cells, 1 warmup)"
       reps);
  let sp_min, sp_p50, alloc_words = spawn_cell () in
  let flat1_min, flat1_p50, flat1_untaken = flat_cell 1 in
  let flat2_min, flat2_p50, flat2_untaken = flat_cell 2 in
  let exp_min, exp_p50, exp_words, exp_inlined = exposed_cell () in
  let steal_min, steal_p50 = steal_cell () in
  let fs_contended, fs_isolated, fs_gap = false_sharing_cell () in
  let fs_sep = fs_contended /. Float.max 1e-9 fs_isolated in
  let fs_apart = fs_gap >= 8 * Nowa_util.Padding.cache_line_words in
  let inl_nowa, inl_elision, inl_serial = inline_cell () in
  let inl_ratio = inl_nowa /. Float.max 1.0 inl_elision in
  let elision_tax = inl_elision /. Float.max 1.0 inl_serial in
  let inl_ok = inl_ratio <= 3.5 in
  Nowa_util.Table.print
    ~header:[ "cell"; "min ns/op"; "p50 ns/op" ]
    [
      [
        "spawn+sync";
        Printf.sprintf "%.1f" sp_min;
        Printf.sprintf "%.1f" sp_p50;
      ];
      [
        "flat spawn, 1 worker";
        Printf.sprintf "%.1f" flat1_min;
        Printf.sprintf "%.1f" flat1_p50;
      ];
      [
        "flat spawn, 2 workers";
        Printf.sprintf "%.1f" flat2_min;
        Printf.sprintf "%.1f" flat2_p50;
      ];
      [
        "exposed spawn+sync";
        Printf.sprintf "%.1f" exp_min;
        Printf.sprintf "%.1f" exp_p50;
      ];
      [
        "steal (chase-lev)";
        Printf.sprintf "%.1f" steal_min;
        Printf.sprintf "%.1f" steal_p50;
      ];
      [
        "ping-pong same line";
        "-";
        Printf.sprintf "%.1f" fs_contended;
      ];
      [
        "ping-pong isolated";
        "-";
        Printf.sprintf "%.1f" fs_isolated;
      ];
    ];
  Printf.printf "flat spawn untaken exposures: %d on 1 worker, %d on 2 (not gated)\n"
    flat1_untaken flat2_untaken;
  Printf.printf "minor alloc per spawn: %.1f words (%.1f per exposed spawn)\n"
    alloc_words exp_words;
  Printf.printf
    "false-sharing separation: %.2fx (contended/isolated); isolated pair %d \
     bytes apart once promoted (%s)\n"
    fs_sep fs_gap
    (if fs_apart then "apart" else "SHARES A LINE");
  Printf.printf
    "inline overhead (fib %d, 1 worker, min of 15): nowa %.2f ms / elision \
     %.2f ms = %.2fx (%s); elision tax over Fib.serial (%.3f ms): %.2fx\n"
    fib_n (inl_nowa /. 1e6) (inl_elision /. 1e6) inl_ratio
    (if inl_ok then "<=3.5x ok" else "OVER BUDGET")
    (inl_serial /. 1e6) elision_tax;
  let module W = Nowa_server.Workload in
  let module L = Nowa_server.Loadgen.Make (R) in
  let kv_spec ~warmup =
    {
      (W.default_spec ~mix:(Option.get (W.find_mix "A"))) with
      W.records = 500;
      requests = 1_500;
      warmup;
      rate = 2_000.;
    }
  in
  let kv_conf =
    {
      (Nowa.Config.with_workers 2) with
      Nowa.Config.idle_policy = Nowa.Config.Park_after 512;
    }
  in
  subsection "request-anatomy overhead (mix A, 2,000 req/s, min of 3)";
  (* Off and on runs alternate, so both modes sample the same host
     drift. *)
  let violations = ref 0 and max_err = ref 0 in
  let p50 anatomy =
    let r = L.run ~conf:kv_conf ~anatomy (kv_spec ~warmup:200) in
    (match r.Nowa_server.Loadgen.anatomy with
    | Some a ->
      violations := !violations + a.Nowa_server.Anatomy.violations;
      max_err := max !max_err a.Nowa_server.Anatomy.max_abs_err_ns
    | None -> ());
    r.Nowa_server.Loadgen.total.Nowa_server.Loadgen.p50_ns
  in
  let p50_off = ref infinity and p50_on = ref infinity in
  for _ = 1 to 3 do
    p50_off := Float.min !p50_off (p50 false);
    p50_on := Float.min !p50_on (p50 true)
  done;
  let p50_off = !p50_off and p50_on = !p50_on in
  let anatomy_pct = (p50_on -. p50_off) /. Float.max 1.0 p50_off *. 100.0 in
  let anatomy_fast = anatomy_pct <= 10.0 in
  let anatomy_ok = anatomy_fast && !violations = 0 in
  Printf.printf
    "anatomy overhead: p50 off=%.1fus on=%.1fus overhead=%+.1f%% (%s); \
     conservation violations=%d max_err=%dns\n"
    (p50_off /. 1e3) (p50_on /. 1e3) anatomy_pct
    (if anatomy_fast then "<=10% ok" else "OVER BUDGET")
    !violations !max_err;
  subsection "combiner wedge detection under a live watchdog";
  let watchdog_ms = 50 and wedge_ms = 300 in
  let detected =
    let conf =
      {
        kv_conf with
        Nowa.Config.watchdog_interval_ms = watchdog_ms;
        watchdog_dump = false;
      }
    in
    Nowa_server.Kv.inject_wedge ~shard:0 ~ms:wedge_ms;
    ignore (L.run ~conf (kv_spec ~warmup:0));
    Nowa_server.Kv.clear_wedge ();
    List.exists
      (function Nowa.Health.Convoy _ -> true | _ -> false)
      (Nowa.Health.verdicts ())
  in
  Printf.printf "wedge (%dms hold, %dms scans): %s\n" wedge_ms watchdog_ms
    (if detected then "convoy verdict raised" else "NOT DETECTED");
  (* Trajectory comparison against the committed baseline. *)
  let tolerance =
    match Sys.getenv_opt "NOWA_MICRO_TOLERANCE" with
    | Some s -> (try float_of_string s with _ -> 10.0)
    | None -> 10.0
  in
  let regressions = ref [] in
  (match baseline with
  | None -> Printf.printf "no committed BENCH_micro.json: baseline run\n"
  | Some b ->
    List.iter
      (fun (kind, field, unit_, now) ->
        (* The ratchet compares min-of-N: the one estimator host jitter
           cannot inflate. *)
        match baseline_value b ~kind ~field with
        | None -> ()
        | Some old ->
          let pct = (now -. old) /. Float.max 1e-9 old *. 100.0 in
          Printf.printf "%s %s: %.1f -> %.1f %s (%+.1f%% vs baseline)\n" kind
            field old now unit_ pct;
          if pct > tolerance then
            regressions :=
              Printf.sprintf "%s regressed %.1f%% (> %.0f%%)" kind pct
                tolerance
              :: !regressions)
      [
        ("spawn_sync", "min_ns", "ns/op", sp_min);
        ("exposed_spawn_sync", "min_ns", "ns/op", exp_min);
        ("steal", "min_ns", "ns/op", steal_min);
        ("alloc_per_spawn", "words", "words", alloc_words);
        ("false_sharing", "isolated_ns", "ns/op", fs_isolated);
      ]);
  let oc = open_out "BENCH_micro.json" in
  Printf.fprintf oc
    "[\n\
    \  {\"kind\": \"spawn_sync\", \"p50_ns\": %.1f, \"min_ns\": %.1f},\n\
    \  {\"kind\": \"flat_spawn\", \"min_ns_1w\": %.1f, \"untaken_1w\": %d, \
     \"min_ns_2w\": %.1f, \"untaken_2w\": %d},\n\
    \  {\"kind\": \"exposed_spawn_sync\", \"p50_ns\": %.1f, \"min_ns\": %.1f, \
     \"words\": %.1f, \"inlined\": %d},\n\
    \  {\"kind\": \"steal\", \"p50_ns\": %.1f, \"min_ns\": %.1f},\n\
    \  {\"kind\": \"alloc_per_spawn\", \"words\": %.1f},\n\
    \  {\"kind\": \"false_sharing\", \"contended_ns\": %.1f, \
     \"isolated_ns\": %.1f, \"separation\": %.2f, \"isolated_gap_bytes\": \
     %d, \"isolated_apart\": %b},\n\
    \  {\"kind\": \"inline_overhead\", \"fib_n\": %d, \"min_nowa_ns\": %.0f, \
     \"min_elision_ns\": %.0f, \"min_serial_ns\": %.0f, \"ratio\": %.2f, \
     \"elision_tax\": %.2f, \"overhead_ok\": %b},\n\
    \  {\"kind\": \"anatomy_overhead\", \"mix\": \"A\", \"rate_rps\": 2000.0, \
     \"p50_off_ns\": %.1f, \"p50_on_ns\": %.1f, \"overhead_pct\": %.2f, \
     \"overhead_ok\": %b, \"violations\": %d, \"max_abs_err_ns\": %d},\n\
    \  {\"kind\": \"wedge_detection\", \"watchdog_ms\": %d, \"wedge_ms\": \
     %d, \"detected\": %b}\n\
     ]\n"
    sp_p50 sp_min flat1_min flat1_untaken flat2_min flat2_untaken exp_p50 exp_min
    exp_words exp_inlined steal_p50 steal_min
    alloc_words fs_contended fs_isolated
    fs_sep fs_gap fs_apart fib_n inl_nowa inl_elision inl_serial
    inl_ratio elision_tax inl_ok p50_off p50_on anatomy_pct anatomy_ok
    !violations !max_err watchdog_ms wedge_ms detected;
  close_out oc;
  Printf.printf "wrote BENCH_micro.json\n";
  let gate = Sys.getenv_opt "NOWA_MICRO_GATE" = Some "1" in
  let failures =
    !regressions
    @ (if inl_ok then []
       else [ Printf.sprintf "inline_overhead %.2fx > 3.5x" inl_ratio ])
    @ (if anatomy_fast then []
       else [ Printf.sprintf "anatomy_overhead %.2f%% > 10%%" anatomy_pct ])
    @ (if !violations = 0 then []
       else
         [
           Printf.sprintf "anatomy_overhead: %d span ledgers do not conserve"
             !violations;
         ])
    @ (if exp_inlined = 0 then []
       else [ Printf.sprintf "exposed cell ran %d spawns inline" exp_inlined ])
    @ (if fs_apart then []
       else
         [
           Printf.sprintf "false_sharing: padded pair %d bytes apart once promoted"
             fs_gap;
         ])
    @ if detected then [] else [ "combiner wedge not detected" ]
  in
  if failures <> [] then begin
    List.iter (fun f -> Printf.eprintf "hotpath gate: %s\n" f) failures;
    if gate then exit 1
  end

let all ~opts () =
  table1 ~opts ();
  figure1 ~opts ();
  figure7 ~opts ();
  figure8 ~opts ();
  table2 ~opts ();
  figure9 ~opts ();
  figure10 ~opts ();
  table3 ~opts ();
  ablation ~opts ();
  scalability ~opts ()

let by_name =
  [
    ("table1", table1);
    ("fig1", figure1);
    ("fig7", figure7);
    ("fig8", figure8);
    ("table2", table2);
    ("fig9", figure9);
    ("fig10", figure10);
    ("table3", table3);
    ("ablation", ablation);
    ("traces", traces);
    ("scalability", scalability);
    ("causal", causal);
    ("idle", idle);
    ("hotpath", hotpath);
    ("all", all);
  ]
