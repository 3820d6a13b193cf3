(* Fork/join workloads: one Table I kernel on 1 worker (T1) and on 2
   workers (T2), against the serial elision run as the control on both
   cores at once ({!Common.on_both_cores}; its time is Ts).  A round runs
   Ts, the serial elision alone on one core (Ts1, the base of the
   single-core [engine.*] ratios), T1, one 2-worker [R.run] that executes
   the kernel [twos_per_round] times back to back, and Ts again, so the
   two Ts bracket the T2s in time; rounds repeat until the time budget is
   spent.  An operation is one 2-worker execution, timed inside [R.run],
   so worker start-up and teardown stay out of it.  The traced run also
   stamps every other round's [R.run] call, first execution start, last
   execution end and return: the spans behind [engine.run_overhead_ms]
   and [engine.sched_wait_us_*].

   The kernel input is fixed by the kernel registry; the seed only seeds
   the runtime's victim selection. *)

module R = Nowa.Presets.Nowa
module Stats = Nowa_util.Stats
module S = Nowa_kernels.Kernel_intf.Serial
module Registry = Nowa_kernels.Registry

let twos_per_round = 4
let max_rounds = 1000

let run kernel ~scale ~seed ~seconds ~traced (r : Report.t) =
  let size =
    match scale with Common.Full -> Registry.Medium | Common.Smoke -> Registry.Test
  in
  let inst = Registry.find size kernel in
  let reference = Registry.reference size kernel in
  let check fp = Report.check r (Registry.matches inst reference fp) in
  let conf1 = Common.conf ~workers:1 ~seed in
  let conf2 = Common.conf ~workers:2 ~seed in
  let layers = Layers.create () in
  let time f =
    let t0 = Mclock.now_ns () in
    let fp = f () in
    let t1 = Mclock.now_ns () in
    check fp;
    Common.ms_of_ns (t1 - t0)
  in
  let one pt = time (fun () -> R.run ~conf:conf1 pt) in
  (* Per round: Ts before and after, Ts1, T1 and the 2-worker executions
     (ms); for a spanned round's 2-worker R.run, its call, first
     execution start, last execution end and return stamps.  The traced
     run spans every other round, so its other rounds are the untraced
     side of [bench.trace_overhead_pct]. *)
  let spanned k = traced && k mod 2 = 1 in
  let ts_before = Array.make max_rounds 0. and ts_after = Array.make max_rounds 0. in
  let ts1 = Array.make max_rounds 0. and t1 = Array.make max_rounds 0. in
  let t2 = Array.make_matrix max_rounds twos_per_round 0. in
  let call = Array.make max_rounds 0 and first = Array.make max_rounds 0 in
  let last = Array.make max_rounds 0 and ret = Array.make max_rounds 0 in
  let twos k pt =
    let stamp a = if spanned k then a.(k) <- Mclock.now_ns () in
    stamp call;
    R.run ~conf:conf2 (fun () ->
        stamp first;
        for j = 0 to twos_per_round - 1 do
          t2.(k).(j) <- time pt
        done;
        stamp last);
    stamp ret
  in
  let serial, serial1, pt =
    Common.setup r ~scale (fun () ->
        (* One serial thunk per core: a thunk may own its scratch data. *)
        let sts = Array.init 2 (fun _ -> inst.make_thunk (module S)) in
        let fps = Array.make 2 0. in
        let serial () =
          let t = Common.on_both_cores (fun i -> fps.(i) <- sts.(i) ()) in
          Array.iter check fps;
          t /. 1e6
        in
        let pt = inst.make_thunk (module R) in
        let serial1 () = time (fun () -> S.run sts.(0)) in
        ignore (serial ());
        ignore (R.run ~conf:conf2 (fun () -> time pt));
        (serial, serial1, pt))
  in
  let rounds =
    Common.repeat ~seconds ~min_steps:1 ~max_steps:max_rounds (fun k ->
        ts_before.(k) <- serial ();
        ts1.(k) <- serial1 ();
        t1.(k) <- one pt;
        Layers.measure layers (fun () -> twos k pt);
        ts_after.(k) <- serial ())
  in
  let over keep f = Common.collect ~lo:0 ~hi:rounds keep f in
  let all _ = true in
  let executions keep = Array.concat (Array.to_list (over keep (fun k -> t2.(k)))) in
  let t2_all = executions all in
  let n2 = Array.length t2_all in
  let ts = Array.init rounds (fun k -> (ts_before.(k) +. ts_after.(k)) /. 2.) in
  let ts1 = Array.sub ts1 0 rounds and t1 = Array.sub t1 0 rounds in
  let ts_all = Array.append (Array.sub ts_before 0 rounds) (Array.sub ts_after 0 rounds) in
  let median a = Stats.median (Array.to_list a) in
  let ts50 = median ts_all and ts150 = median ts1 and t150 = median t1 in
  let t250 = median t2_all in
  (* Each 2-worker execution over the same round's Ts. *)
  let slowdowns =
    Array.concat (Array.to_list (over all (fun k -> Array.map (fun t -> t /. ts.(k)) t2.(k))))
  in
  Report.set ~n:n2 r "slowdown_p50" (median slowdowns);
  Common.set_pct r "slowdown_p90" slowdowns 90.;
  Report.set ~n:n2 r "latency_ms_p50" t250;
  Common.set_pct r "latency_ms_p90" t2_all 90.;
  Report.set ~n:n2 r "throughput_per_s" (1000. /. t250);
  (* Speedup per round (Ts against the same round's T2 median), so a
     slow stretch of the host scales both sides of each ratio. *)
  Report.set ~n:rounds r "speedup"
    (median (over all (fun k -> ts.(k) /. median t2.(k))));
  Report.set ~n:layers.runs r "peak_heap_mb" (Layers.peak_heap_mb layers);
  (* Layers. *)
  Layers.report layers r ~ops:n2;
  let spawns = Layers.sum layers "nowa_scheduler_spawns_total" /. float_of_int n2 in
  Report.set ~n:rounds r "engine.spawn_ns"
    (if spawns = 0. then 0. else (t150 -. ts150) *. 1e6 /. spawns);
  Report.set ~n:rounds r "engine.work_overhead" (t150 /. ts150);
  Report.set ~n:(2 * rounds) r "kernel.serial_ms_p50" ts50;
  let waits = over spanned (fun k -> Common.us_of_ns (first.(k) - call.(k))) in
  Common.set_pct r "engine.sched_wait_us_p50" waits 50.;
  Common.set_pct r "engine.sched_wait_us_p99" waits 99.;
  let overheads =
    over spanned (fun k -> Common.ms_of_ns (ret.(k) - call.(k) - (last.(k) - first.(k))))
  in
  Common.set_pct r "engine.run_overhead_ms" overheads 50.;
  let t2_us = Array.map (fun ms -> ms *. 1e3) t2_all in
  Common.set_pct r "tail.latency_us_p99" t2_us 99.;
  Common.set_pct r "tail.latency_us_p999" t2_us 99.9;
  Common.trace_overhead r ~traced:(executions spanned)
    ~untraced:(executions (fun k -> not (spanned k)));
  Report.absent r
    [
      "kv.serial_x"; "kv.exec_us_p50"; "kv.exec_us_p99"; "kv.handoffs_per_req"; "kv.dropped";
      "route.call_ns_p50"; "route.call_ns_p99"; "route.hop_us_p50";
      "route.hop_us_p99"; "route.egress_busy_frac"; "open_loop.lag_us_p50";
      "open_loop.lag_us_p99"; "open_loop.achieved_rps";
    ];
  if traced then
    Common.write_spans ~workload:r.workload
      ~header:"round,call_ns,first_start_ns,last_end_ns,return_ns" ~count:rounds (fun k ->
        if spanned k then
          Some (Printf.sprintf "%d,%d,%d,%d,%d" k call.(k) first.(k) last.(k) ret.(k))
        else None)
