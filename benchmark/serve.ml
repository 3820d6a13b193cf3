(* KV-serving workloads: rounds of an open-loop slice at a fixed offered
   rate followed by a capacity pass.

   The schedule (operations and Poisson arrival times) is generated from
   the seed before anything is timed.  In a fixed-rate slice (a quarter
   second of arrivals, its own [R.run]) the root task waits for each
   request's due time and spawns it with [spawn_unit]; latency runs from
   the due time to [Kv.exec]'s return, so a stall is charged to every
   request it delays.  The capacity pass runs one block of the schedule
   on 2 workers with no pacing.

   The gated ratios are taken against a control ({!Common.on_both_cores}):
   the same block replayed on a stdlib [Hashtbl] holding the same
   preload, one copy per core, with no runtime and no KV layer, timed
   before and after each capacity pass.  The control runs none of the
   repository's code, so a slower scheduler and a slower KV layer both
   move [speedup] and [slowdown_*], while a slower host moves both sides.
   Each round also times the block as the serial elision (plain
   [Kv.exec] calls, no runtime), which gives the KV layer's own serial
   cost as [kv.serial_x]: it tells the two causes apart.  Short
   rounds keep each slice and its controls close in time, so the ratios
   hold while the host's speed drifts.

   Each request writes its outcome with one array store; the outcomes
   are checked after each pass (see {!Oracle}). *)

module R = Nowa.Presets.Nowa
module Kv = Nowa_server.Kv
module Sm = Nowa_util.Splitmix
module Stats = Nowa_util.Stats

type mix = Point | Scan

type params = {
  records : int;
  rate : float;  (** offered requests per second in the fixed-rate pass *)
  warmup : int;
  slice : int;  (** requests per fixed-rate slice *)
  block : int;  (** requests per capacity pass *)
}

let params scale mix =
  match (scale, mix) with
  | Common.Full, Point ->
    { records = 20_000; rate = 20_000.; warmup = 10_000; slice = 5_000; block = 40_000 }
  | Common.Full, Scan ->
    { records = 20_000; rate = 10_000.; warmup = 10_000; slice = 2_500; block = 6_000 }
  | Common.Smoke, Point ->
    { records = 2_000; rate = 20_000.; warmup = 1_000; slice = 1_000; block = 5_000 }
  | Common.Smoke, Scan ->
    { records = 2_000; rate = 10_000.; warmup = 1_000; slice = 500; block = 3_000 }

type schedule = {
  ops : Kv.op array;  (** warm-up, then fixed-rate, then capacity block *)
  due : int array;  (** arrival offsets (ns) of the fixed-rate requests *)
  fixed_lo : int;
  cap_lo : int;
}

(* YCSB-A: 50/50 read/update.  YCSB-E: 95% scans of 1-8 consecutive keys
   (as a [Multi_get], so they cross shards), 5% inserts.  Keys are
   zipfian (theta 0.99) ranks scrambled over the preloaded keys. *)
let generate mix (p : params) ~seed ~fixed =
  let root = Sm.make ~seed in
  let r_op = Sm.split root and r_key = Sm.split root and r_gap = Sm.split root in
  let zipf = Nowa_util.Zipf.create ~n:p.records ~theta:0.99 in
  let key () = Sm.scramble (Nowa_util.Zipf.draw zipf r_key) mod p.records in
  let population = ref p.records in
  let total = p.warmup + fixed + p.block in
  let ops =
    Array.init total (fun i ->
        let writer = i + 1 in
        match mix with
        | Point ->
          let k = key () in
          if Sm.float r_op < 0.5 then Kv.Get k
          else Kv.Put (k, Oracle.value ~key:k ~writer)
        | Scan ->
          if Sm.float r_op < 0.05 then begin
            let k = !population in
            incr population;
            Kv.Put (k, Oracle.value ~key:k ~writer)
          end
          else
            let start = key () and len = 1 + Sm.int r_key 8 in
            Kv.Multi_get (Array.init len (fun j -> (start + j) mod !population)))
  in
  let clock = ref 0 in
  let due =
    Array.init fixed (fun _ ->
        clock := !clock + int_of_float (-.log (1. -. Sm.float r_gap) /. p.rate *. 1e9);
        !clock)
  in
  { ops; due; fixed_lo = p.warmup; cap_lo = p.warmup + fixed }

(* The control's serial program: requests [lo, hi) on a stdlib
   [Hashtbl], each reply stored with one array write as the real requests
   do. *)
let replay tbl (ops : Kv.op array) replies ~lo ~hi =
  let find k = Hashtbl.find_opt tbl k in
  for i = lo to hi - 1 do
    replies.(i - lo) <-
      (match ops.(i) with
      | Kv.Get k -> ( match find k with Some v -> Kv.Hit v | None -> Kv.Miss)
      | Kv.Put (k, v) ->
        Hashtbl.replace tbl k v;
        Kv.Ack
      | Kv.Multi_get ks -> Kv.Many (Array.map find ks)
      | _ -> Kv.Dropped)
  done

let run mix ~scale ~seed ~seconds ~traced (r : Report.t) =
  let p = params scale mix in
  (* Enough slices to fill the budget with arrivals alone. *)
  let slices = max 3 (int_of_float (Float.ceil (p.rate *. seconds /. float_of_int p.slice))) in
  let fixed = slices * p.slice in
  let total = p.warmup + fixed + p.block in
  let conf = Common.conf ~workers:2 ~seed in
  let outcomes = Array.make total Kv.Pending in
  let start = Array.make total 0 and done_ = Array.make total 0 in
  let due_at = Array.make total 0 and lag = Array.make total 0 in
  let spanned = Array.make total false in
  let dups = Atomic.make 0 in
  let request kv ops i () =
    if spanned.(i) then start.(i) <- Mclock.now_ns ();
    let o = Kv.exec kv ops.(i) in
    done_.(i) <- Mclock.now_ns ();
    if outcomes.(i) != Kv.Pending then Atomic.incr dups;
    outcomes.(i) <- o
  in
  let verify sched ~lo ~hi =
    let failed = ref (Atomic.exchange dups 0) in
    for i = lo to hi - 1 do
      if not (Oracle.kv_outcome ~records:p.records sched.ops sched.ops.(i) outcomes.(i))
      then incr failed;
      outcomes.(i) <- Kv.Pending
    done;
    Report.check_many r ~attempted:(hi - lo) ~failed:!failed
  in
  let overheads = ref [] in
  (* Requests [lo, hi) on 2 workers; paced by the schedule or back to
     back.  Returns the wall time inside [R.run]. *)
  let pass kv sched ~lo ~hi ~paced =
    let inside = ref 0 in
    let c = Mclock.now_ns () in
    R.run ~conf (fun () ->
        let t0 = Mclock.now_ns () in
        let base = t0 - if paced then sched.due.(lo - sched.fixed_lo) else 0 in
        R.scope (fun sc ->
            for i = lo to hi - 1 do
              if paced then begin
                let due = base + sched.due.(i - sched.fixed_lo) in
                lag.(i) <- Mclock.spin_until due - due;
                due_at.(i) <- due
              end;
              R.spawn_unit sc (request kv sched.ops i)
            done);
        inside := Mclock.now_ns () - t0);
    overheads := Common.ms_of_ns (Mclock.now_ns () - c - !inside) :: !overheads;
    verify sched ~lo ~hi;
    !inside
  in
  let serial kv sched ~lo ~hi =
    let t0 = Mclock.now_ns () in
    for i = lo to hi - 1 do
      outcomes.(i) <- Kv.exec kv sched.ops.(i)
    done;
    let t = Mclock.now_ns () - t0 in
    verify sched ~lo ~hi;
    t
  in
  let kv, sched, tbls =
    Common.setup r ~scale (fun () ->
        let sched = generate mix p ~seed ~fixed in
        let kv = Kv.create ~shards:16 ~buckets_per_shard:64 () in
        let tbls = Array.init 2 (fun _ -> Hashtbl.create (2 * p.records)) in
        for k = 0 to p.records - 1 do
          let v = Oracle.value ~key:k ~writer:0 in
          ignore (Kv.exec kv (Kv.Put (k, v)));
          Array.iter (fun tbl -> Hashtbl.replace tbl k v) tbls
        done;
        ignore (pass kv sched ~lo:0 ~hi:p.warmup ~paced:false);
        (kv, sched, tbls))
  in
  let replies = Array.init 2 (fun _ -> Array.make p.block Kv.Pending) in
  let control ~lo ~hi =
    int_of_float
      (Common.on_both_cores (fun i -> replay tbls.(i) sched.ops replies.(i) ~lo ~hi))
  in
  let layers = Layers.create () in
  let handoffs = ref 0 in
  (* A slice is valid when its completions kept up with its arrivals:
     achieved rate at least 0.98 of the offered one. *)
  let achieved = ref [] and valid = ref true in
  (* Per round: the control before and after the capacity pass, which
     brackets it in time, the serial elision and the pass itself (ns). *)
  let before_ns = ref [] and after_ns = ref [] in
  let serial_ns = ref [] and pass_ns = ref [] in
  (* The traced run spans every other slice, for the overhead comparison. *)
  let rounds =
    Common.repeat ~seconds ~min_steps:3 ~max_steps:slices (fun k ->
        let lo = sched.fixed_lo + (k * p.slice) in
        let hi = lo + p.slice in
        for i = lo to hi - 1 do
          spanned.(i) <- traced && k mod 2 = 1
        done;
        let h0 = Kv.handoffs kv in
        ignore (Layers.measure layers (fun () -> pass kv sched ~lo ~hi ~paced:true));
        handoffs := !handoffs + (Kv.handoffs kv - h0);
        let last_done = Array.fold_left max 0 (Array.sub done_ lo p.slice) in
        let rate t = float_of_int p.slice /. (float_of_int (t - due_at.(lo)) /. 1e9) in
        let a = rate last_done in
        if a < 0.98 *. rate due_at.(hi - 1) then valid := false;
        if not spanned.(lo) then achieved := a :: !achieved;
        let time f acc = acc := float_of_int (f ~lo:sched.cap_lo ~hi:total) :: !acc in
        time control before_ns;
        time (serial kv sched) serial_ns;
        time (pass kv sched ~paced:false) pass_ns;
        time control after_ns)
  in
  let fixed_lo = sched.fixed_lo in
  let fixed_hi = fixed_lo + (rounds * p.slice) in
  let n = fixed_hi - fixed_lo in
  let chrono l = Array.of_list (List.rev !l) in
  let before_ns = chrono before_ns and after_ns = chrono after_ns in
  let serial_ns = chrono serial_ns and pass_ns = chrono pass_ns in
  let control_ns = Array.init rounds (fun k -> (before_ns.(k) +. after_ns.(k)) /. 2.) in
  let median a = Stats.median (Array.to_list a) in
  let over keep f = Common.collect ~lo:fixed_lo ~hi:fixed_hi keep f in
  let latency keep = over keep (fun i -> Common.us_of_ns (done_.(i) - due_at.(i))) in
  let all _ = true in
  let lat = latency all in
  (* Quantiles per slice, then their median. *)
  let window = p.slice in
  (* Each request's latency over the control's mean time per request,
     from the controls on either side of its slice. *)
  let service_ns =
    Array.init rounds (fun k ->
        let prev = if k = 0 then before_ns.(0) else after_ns.(k - 1) in
        (prev +. before_ns.(k)) /. 2. /. float_of_int p.block)
  in
  let slowdowns =
    over all (fun i ->
        float_of_int (done_.(i) - due_at.(i)) /. service_ns.((i - fixed_lo) / p.slice))
  in
  Report.set ~n r "slowdown_p50" (Sample.windowed slowdowns ~size:window 50.);
  Report.set ~n r "slowdown_p90" (Sample.windowed slowdowns ~size:window 90.);
  Report.set ~n r "latency_ms_p50" (Sample.windowed lat ~size:window 50. /. 1e3);
  Report.set ~n r "latency_ms_p90" (Sample.windowed lat ~size:window 90. /. 1e3);
  Report.set ~n:rounds r "throughput_per_s"
    (median (Array.map (fun ns -> float_of_int p.block /. (ns /. 1e9)) pass_ns));
  (* Speedup per round (the control around the capacity pass against
     it), so a slow stretch of the host scales both sides. *)
  Report.set ~n:rounds r "speedup" (median (Array.map2 ( /. ) control_ns pass_ns));
  Report.set ~n:layers.runs r "peak_heap_mb" (Layers.peak_heap_mb layers);
  (* Layers, from the fixed-rate slices. *)
  Layers.report layers r ~ops:n;
  Report.set ~n:rounds r "kv.serial_x" (median (Array.map2 ( /. ) serial_ns control_ns));
  Report.set ~n r "kv.handoffs_per_req" (float_of_int !handoffs /. float_of_int n);
  Report.set r "kv.dropped" (float_of_int (Kv.dropped kv));
  Common.set_pct r "tail.latency_us_p99" lat 99.;
  Common.set_pct r "tail.latency_us_p999" lat 99.9;
  let lags = over all (fun i -> Common.us_of_ns lag.(i)) in
  Common.set_pct r "open_loop.lag_us_p50" lags 50.;
  Common.set_pct r "open_loop.lag_us_p99" lags 99.;
  Report.set ~n:(List.length !achieved) r "open_loop.achieved_rps" (Stats.median !achieved);
  Report.set r "open_loop.valid" (if !valid then 1. else 0.);
  let is_spanned i = spanned.(i) in
  let waits = over is_spanned (fun i -> Common.us_of_ns (start.(i) - due_at.(i))) in
  Common.set_pct r "engine.sched_wait_us_p50" waits 50.;
  Common.set_pct r "engine.sched_wait_us_p99" waits 99.;
  let execs = over is_spanned (fun i -> Common.us_of_ns (done_.(i) - start.(i))) in
  Common.set_pct r "kv.exec_us_p50" execs 50.;
  Common.set_pct r "kv.exec_us_p99" execs 99.;
  Report.set ~n:(List.length !overheads) r "engine.run_overhead_ms" (Stats.median !overheads);
  Report.set ~n:(2 * rounds) r "kernel.serial_ms_p50"
    (median (Array.append before_ns after_ns) /. 1e6);
  Common.trace_overhead r ~traced:(latency is_spanned)
    ~untraced:(if traced then latency (fun i -> not (is_spanned i)) else [||]);
  Report.absent r
    [
      "engine.spawn_ns"; "engine.work_overhead"; "route.call_ns_p50";
      "route.call_ns_p99"; "route.hop_us_p50"; "route.hop_us_p99";
      "route.egress_busy_frac";
    ];
  if traced then
    Common.write_spans ~workload:r.workload
      ~header:"request,due_ns,start_ns,exec_return_ns" ~count:total (fun i ->
        if spanned.(i) then
          Some (Printf.sprintf "%d,%d,%d,%d" i due_at.(i) start.(i) done_.(i))
        else None)
