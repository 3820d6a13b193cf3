(* Routed pipeline: two 1-worker pools.  The root runs on [ingress],
   applies stage 1 to each packet inline and routes stage 2 to [egress]
   with [spawn_unit_on], keeping at most [window] packets in flight (a
   ring of credits, as a NIC queue would); after the last packet it
   sleeps on a completion latch, so the run holds 2 runnable domains on
   2 cores.  Each repetition is its own [R.run] over the whole packet
   set, preceded by the control ({!Common.on_both_cores}): the serial
   elision of the same packets (both stages inline, no runtime), one copy
   per core.

   Correctness: every packet completes exactly once (a completion count)
   and the payload checksum equals the serial one. *)

module R = Nowa.Presets.Nowa
module Sm = Nowa_util.Splitmix
module Stats = Nowa_util.Stats

(* A stage is an integer mix heavy enough to be real work and cheap
   enough that routing, not arithmetic, sets the rate. *)
let stage salt x0 =
  let x = ref (x0 + salt) in
  for _ = 1 to 96 do
    x := (!x * 0x9E3779B1) land 0x3FFFFFFFFFFF;
    x := !x lxor (!x lsr 13)
  done;
  !x

(* The window bounds the egress backlog, so heap size and hop latency
   measure routing rather than an unbounded queue. *)
let window = 4096

(* A lost packet must end as a reported failure, not a hang. *)
let deadline_ns = 10_000_000_000

let run ~scale ~seed ~seconds ~traced (r : Report.t) =
  let packets = match scale with Common.Full -> 200_000 | Common.Smoke -> 20_000 in
  let conf =
    {
      (Common.conf ~workers:2 ~seed) with
      Nowa.Config.pools =
        [ Nowa.Config.pool "ingress" ~workers:1; Nowa.Config.pool "egress" ~workers:1 ];
    }
  in
  let serial payload n =
    let sum = ref 0 in
    for p = 0 to n - 1 do
      sum := !sum + stage 2 (stage 1 payload.(p))
    done;
    !sum
  in
  (* Spans of the last spanned repetition: stage-2 call and return on
     ingress, routed start and end on egress. *)
  let call = Array.make packets 0 and ret = Array.make packets 0 in
  let start = Array.make packets 0 and fin = Array.make packets 0 in
  let overheads = ref [] in
  (* One routed repetition over the first [n] packets; returns the wall
     time from the first stage-1 to the last stage-2 completion. *)
  let routed ~spanned payload ~expected n =
    let completed = Atomic.make 0 in
    let sum = ref 0 and t_last = ref 0 and t0 = ref 0 in
    let c = Mclock.now_ns () in
    R.run ~conf (fun () ->
        let egress = R.pool "egress" in
        t0 := Mclock.now_ns ();
        for p = 0 to n - 1 do
          if p land 63 = 0 then
            while p - Atomic.get completed >= window && Mclock.now_ns () < !t0 + deadline_ns do
              Domain.cpu_relax ()
            done;
          let x1 = stage 1 payload.(p) in
          if spanned then call.(p) <- Mclock.now_ns ();
          R.spawn_unit_on egress (fun () ->
              if spanned then start.(p) <- Mclock.now_ns ();
              (* Egress has one worker and no spill-over: [sum] has a
                 single writer, published by the atomic increment. *)
              sum := !sum + stage 2 x1;
              let now = Mclock.now_ns () in
              if spanned then fin.(p) <- now;
              if Atomic.fetch_and_add completed 1 = n - 1 then t_last := now);
          if spanned then ret.(p) <- Mclock.now_ns ()
        done;
        let give_up = !t0 + deadline_ns in
        while Atomic.get completed < n && Mclock.now_ns () < give_up do
          Unix.sleepf 50e-6
        done);
    let finished = Mclock.now_ns () in
    let done_ = Atomic.get completed in
    let inside = (if done_ = n then !t_last else finished) - !t0 in
    overheads := Common.ms_of_ns (finished - c - inside) :: !overheads;
    let lost = n - done_ in
    let failed = if lost > 0 then lost else if !sum <> expected then n else 0 in
    Report.check_many r ~attempted:n ~failed;
    inside
  in
  let payload, expected =
    Common.setup r ~scale (fun () ->
        let rng = Sm.make ~seed in
        let payload = Array.init packets (fun _ -> Sm.int rng (1 lsl 40)) in
        let warm = packets / 10 in
        ignore (routed ~spanned:false payload ~expected:(serial payload warm) warm);
        (payload, serial payload packets))
  in
  let layers = Layers.create () in
  let serial_ms = ref [] and rep_ms = ref [] and spanned_reps = ref [] in
  let steps =
    Common.repeat ~seconds ~min_steps:2 ~max_steps:1000 (fun k ->
        let sums = Array.make 2 0 in
        let ns = Common.on_both_cores (fun i -> sums.(i) <- serial payload packets) in
        serial_ms := (ns /. 1e6) :: !serial_ms;
        Array.iter (fun sum -> Report.check r (sum = expected)) sums;
        let spanned = traced && k mod 2 = 1 in
        let ns =
          Layers.measure layers (fun () -> routed ~spanned payload ~expected packets)
        in
        rep_ms := Common.ms_of_ns ns :: !rep_ms;
        spanned_reps := spanned :: !spanned_reps)
  in
  let reps_ms = Array.of_list (List.rev !rep_ms) in
  let spanned_of = Array.of_list (List.rev !spanned_reps) in
  let serial_ms = Array.of_list (List.rev !serial_ms) in
  let median a = Stats.median (Array.to_list a) in
  let pps = Array.map (fun ms -> float_of_int packets /. (ms /. 1e3)) reps_ms in
  let slowdowns = Array.map2 ( /. ) reps_ms serial_ms in
  Report.set ~n:steps r "slowdown_p50" (median slowdowns);
  Common.set_pct r "slowdown_p90" slowdowns 90.;
  Report.set ~n:steps r "latency_ms_p50" (median reps_ms);
  Common.set_pct r "latency_ms_p90" reps_ms 90.;
  Report.set ~n:steps r "throughput_per_s" (median pps);
  (* Speedup per repetition (its own control against its routed run),
     so a slow stretch of the host scales both sides. *)
  Report.set ~n:steps r "speedup" (median (Array.map2 ( /. ) serial_ms reps_ms));
  Report.set ~n:layers.runs r "peak_heap_mb" (Layers.peak_heap_mb layers);
  Layers.report layers r ~ops:(steps * packets);
  Report.set ~n:steps r "kernel.serial_ms_p50" (median serial_ms);
  Report.set ~n:(List.length !overheads) r "engine.run_overhead_ms"
    (Stats.median !overheads);
  let reps_us = Array.map (fun ms -> ms *. 1e3) reps_ms in
  Common.set_pct r "tail.latency_us_p99" reps_us 99.;
  Common.set_pct r "tail.latency_us_p999" reps_us 99.9;
  let reps_where keep =
    Common.collect ~lo:0 ~hi:steps (fun k -> keep spanned_of.(k)) (fun k -> reps_ms.(k))
  in
  Common.trace_overhead r ~traced:(reps_where Fun.id) ~untraced:(reps_where not);
  (* Spans exist only when a spanned repetition ran. *)
  let spanned_any = Array.exists Fun.id spanned_of in
  let over f = if spanned_any then Array.init packets f else [||] in
  let calls = over (fun p -> float_of_int (ret.(p) - call.(p))) in
  let hops = over (fun p -> Common.us_of_ns (start.(p) - call.(p))) in
  Common.set_pct r "route.call_ns_p50" calls 50.;
  Common.set_pct r "route.call_ns_p99" calls 99.;
  Common.set_pct r "route.hop_us_p50" hops 50.;
  Common.set_pct r "route.hop_us_p99" hops 99.;
  Common.set_pct r "engine.sched_wait_us_p50" hops 50.;
  Common.set_pct r "engine.sched_wait_us_p99" hops 99.;
  let busy = ref 0 and first = ref max_int and last = ref 0 in
  if spanned_any then
    for p = 0 to packets - 1 do
      busy := !busy + (fin.(p) - start.(p));
      first := min !first call.(p);
      last := max !last fin.(p)
    done;
  Report.set ~n:(Array.length hops) r "route.egress_busy_frac"
    (if spanned_any then float_of_int !busy /. float_of_int (!last - !first) else 0.);
  Report.absent r
    [
      "engine.spawn_ns"; "engine.work_overhead"; "kv.serial_x"; "kv.exec_us_p50"; "kv.exec_us_p99";
      "kv.handoffs_per_req"; "kv.dropped"; "open_loop.lag_us_p50"; "open_loop.lag_us_p99";
      "open_loop.achieved_rps";
    ];
  if traced && spanned_any then
    Common.write_spans ~workload:r.workload
      ~header:"packet,call_ns,call_return_ns,start_ns,end_ns" ~count:packets (fun p ->
        Some (Printf.sprintf "%d,%d,%d,%d,%d" p call.(p) ret.(p) start.(p) fin.(p)))
