(* Tests for the runtime-health subsystem: the stall/convoy watchdog
   over the workers' own counters, the SLO burn-rate evaluator, the
   flight recorder, and the monitor's lifecycle discipline.

   The false-positive tests are the load-bearing ones: a watchdog that
   cries wolf on parked, idle or merely-slow workers is worse than none,
   so parked, idle, routing and busy pools must come out clean, while an
   injected stall and an injected combiner wedge must each be caught
   within two scan periods. *)

module Health = Nowa_runtime.Health
module Config = Nowa_runtime.Config

let conf ?(watchdog = 10) ?(stall_scans = 2) ?(dump = false) workers =
  {
    (Config.with_workers workers) with
    Config.watchdog_interval_ms = watchdog;
    watchdog_stall_scans = stall_scans;
    watchdog_dump = dump;
  }

(* -- injection primitive ------------------------------------------------ *)

let test_inject_spins () =
  Health.Inject.clear ();
  Health.Inject.stall ~worker:0 ~ms:50;
  let task_start_ms w =
    let t0 = Nowa_util.Clock.now_ns () in
    Health.Inject.task_start w;
    float (Nowa_util.Clock.now_ns () - t0) /. 1e6
  in
  let check what ok ms =
    Alcotest.(check bool) (Printf.sprintf "%s (%.1fms)" what ms) true (ok ms)
  in
  check "another worker passes at once" (fun ms -> ms < 45.0) (task_start_ms 1);
  check "first task start spun" (fun ms -> ms >= 45.0) (task_start_ms 0);
  check "one-shot: second task start is free" (fun ms -> ms < 45.0) (task_start_ms 0)

let test_parse_stall () =
  Alcotest.(check (option (pair int int)))
    "worker:N:ms" (Some (3, 75))
    (Health.Inject.parse_stall "worker:3:75");
  Alcotest.(check (option (pair int int)))
    "N:ms" (Some (1, 500))
    (Health.Inject.parse_stall "1:500");
  Alcotest.(check (option (pair int int)))
    "N defaults 200ms" (Some (2, 200))
    (Health.Inject.parse_stall "2");
  Alcotest.(check (option (pair int int)))
    "garbage" None
    (Health.Inject.parse_stall "x:y")

(* -- end-to-end detection ------------------------------------------------ *)

let spin_ms ms =
  let stop = Nowa_util.Clock.now_ns () + (ms * 1_000_000) in
  while Nowa_util.Clock.now_ns () < stop do
    Domain.cpu_relax ()
  done

(* Keep every worker visibly busy (spawn-heavy, fine-grained) while one
   injected worker wedges: the watchdog must flag that worker.  The
   stall threshold (50ms x 5 = 250ms) sits well above OS preemption
   jitter (this may be a single-core host time-sharing all workers) and
   well below the 900ms injected wedge.  The busy work repeats until the
   verdict lands (bounded): a fixed batch can finish inside the
   detection window on a 2-core host, and a draining pool is no longer
   classified. *)
let test_stall_detected (module R : Nowa.RUNTIME) () =
  let module O = Nowa.Ops (R) in
  Health.Inject.clear ();
  Health.Inject.stall ~worker:1 ~ms:900;
  let stalled () =
    List.filter_map
      (function Health.Worker_stalled { worker; _ } -> Some worker | _ -> None)
      (Health.verdicts ())
  in
  R.run ~conf:(conf ~watchdog:50 ~stall_scans:5 4) (fun () ->
      let deadline = Unix.gettimeofday () +. 3.0 in
      while
        (not (List.mem 1 (stalled ()))) && Unix.gettimeofday () < deadline
      do
        O.parallel_for ~grain:1 0 64 (fun _ -> spin_ms 1)
      done);
  Health.Inject.clear ();
  Alcotest.(check bool)
    (Printf.sprintf "worker 1 flagged (verdicts: %s)"
       (String.concat "; "
          (List.map Health.verdict_to_string (Health.verdicts ()))))
    true
    (List.mem 1 (stalled ()))

(* A pool that parks (tiny workload, park-after policy, long idle tail)
   must never produce a stall or starvation verdict: parked-idle is
   healthy. *)
let test_parked_is_not_stalled (module R : Nowa.RUNTIME) () =
  let module O = Nowa.Ops (R) in
  Health.Inject.clear ();
  (* The stall threshold (stall_scans * interval = 150ms) must exceed
     the longest legitimate quiet stretch: the 40ms inter-burst gap on
     the main strand plus scheduling jitter on an oversubscribed host --
     that is the operational contract of any progress watchdog.  Parked
     workers must stay clean regardless of how many quiet scans elapse,
     which is what the tight 5ms scan cadence exercises. *)
  let c =
    {
      (conf ~watchdog:5 ~stall_scans:30 4) with
      Config.idle_policy = Config.Park_after 64;
    }
  in
  R.run ~conf:c (fun () ->
      (* Short bursts separated by idle gaps long enough for every
         worker to park across many watchdog scans. *)
      for _ = 1 to 5 do
        O.parallel_for ~grain:1 0 16 (fun _ -> spin_ms 1);
        spin_ms 40
      done);
  Alcotest.(check (list string))
    "no verdicts on a parking pool" []
    (List.map Health.verdict_to_string (Health.verdicts ()))

(* A healthy saturated pool: no false positives either.  The threshold
   (25ms x 20 = 500ms) tolerates preemption gaps when all workers
   time-share a single core. *)
let test_busy_is_not_stalled () =
  Health.Inject.clear ();
  Nowa.run ~conf:(conf ~watchdog:25 ~stall_scans:20 4) (fun () ->
      Nowa.parallel_for ~grain:1 0 256 (fun _ -> spin_ms 1));
  Alcotest.(check (list string))
    "no verdicts on a busy pool" []
    (List.map Health.verdict_to_string (Health.verdicts ()))

(* The watchdog probe's accessors ([ready], [pool_of], the sleeper
   reads) are wired once for every engine family; the two detection
   tests above run on one preset per family.  The default preset keeps
   the unsuffixed test names. *)
let families : (string * (module Nowa.RUNTIME)) list =
  [
    ("", (module Nowa.Presets.Nowa));
    (" [tbb]", (module Nowa.Presets.Tbb));
    (" [gomp]", (module Nowa.Presets.Gomp));
  ]

let per_family ?(among = families) name f =
  List.map
    (fun (suffix, r) -> Alcotest.test_case (name ^ suffix) `Quick (f r))
    among

(* A libomp tied waiter runs only its own deque.  Here the root's one
   child is stolen by the other worker and runs 400ms of 1ms tasks,
   so the root spins at [sync] with nothing to help with, for longer
   than the stall threshold (25ms x 4).  Waiting is not stalling: every
   empty taskwait round must count as progress. *)
let test_tied_waiter_is_not_stalled () =
  let module R = Nowa.Presets.Lomp_tied in
  Health.Inject.clear ();
  let started = Atomic.make false in
  R.run ~conf:(conf ~watchdog:25 ~stall_scans:4 2) (fun () ->
      R.scope (fun sc ->
          R.spawn_unit sc (fun () ->
              Atomic.set started true;
              R.scope (fun inner ->
                  for _ = 1 to 400 do
                    R.spawn_unit inner (fun () -> spin_ms 1)
                  done));
          while not (Atomic.get started) do
            Domain.cpu_relax ()
          done));
  Alcotest.(check (list string))
    "no verdicts on a tied waiter" []
    (List.map Health.verdict_to_string (Health.verdicts ()))

let no_verdicts what =
  Alcotest.(check (list string))
    ("no verdicts on " ^ what) []
    (List.map Health.verdict_to_string (Health.verdicts ()))

(* A root that only routes: a counting [spawn_unit_on] to another pool
   every 100us for 600ms, three times the stall threshold (25ms x 8).
   A routed push is progress, so the routing worker is not stalled. *)
let test_routing_root_is_not_stalled () =
  let module R = Nowa.Presets.Nowa in
  Health.Inject.clear ();
  let pools = [ Config.pool "inject" ~workers:1; Config.pool "serve" ~workers:2 ] in
  let ran = Atomic.make 0 and n = 6_000 in
  R.run ~conf:{ (conf ~watchdog:25 ~stall_scans:8 1) with Config.pools } (fun () ->
      let serve = R.pool "serve" and t0 = Nowa_util.Clock.now_ns () in
      for k = 1 to n do
        while Nowa_util.Clock.now_ns () < t0 + (k * 100_000) do
          Domain.cpu_relax ()
        done;
        R.spawn_unit_on serve (fun () -> Atomic.incr ran)
      done;
      while Atomic.get ran < n do
        Domain.cpu_relax ()
      done);
  no_verdicts "a routing root"

(* Two 1-worker pools under [Spin]: [main] runs 400 children of 1ms
   while [side] idles for twice the stall threshold (25ms x 8).  Its
   rounds find no pool-mate and, over per-worker deques, make no steal
   attempt: an idle round is still progress. *)
let test_idle_spinning_pool_is_not_stalled (module R : Nowa.RUNTIME) () =
  Health.Inject.clear ();
  let pools = [ Config.pool "main" ~workers:1; Config.pool "side" ~workers:1 ] in
  let c =
    { (conf ~watchdog:25 ~stall_scans:8 1) with Config.pools; idle_policy = Config.Spin }
  in
  R.run ~conf:c (fun () ->
      R.scope (fun sc ->
          for _ = 1 to 400 do
            R.spawn_unit sc (fun () -> spin_ms 1)
          done));
  no_verdicts "an idle spinning pool"

let spinning_families : (string * (module Nowa.RUNTIME)) list =
  families @ [ (" [lomp-tied]", (module Nowa.Presets.Lomp_tied)) ]

(* -- monitor lifecycle --------------------------------------------------- *)

let test_no_monitor_leak_across_lifecycles () =
  Health.Inject.clear ();
  let before = Health.Monitor.started_total () in
  for _ = 1 to 100 do
    ignore (Nowa.run ~conf:(conf ~watchdog:1 2) (fun () -> 1 + 1))
  done;
  Alcotest.(check int) "all monitors joined" 0 (Health.Monitor.live ());
  Alcotest.(check int) "one monitor per run" 100
    (Health.Monitor.started_total () - before);
  (* And a watchdog-off run starts none. *)
  ignore (Nowa.run ~conf:(conf ~watchdog:0 2) (fun () -> ()));
  Alcotest.(check int) "off means off" 100
    (Health.Monitor.started_total () - before)

let test_scan_gauge_exported () =
  Health.Inject.clear ();
  ignore
    (Nowa.run ~conf:(conf ~watchdog:5 2) (fun () ->
         spin_ms 30;
         42));
  let text = Nowa_obs.Expose.to_prometheus () in
  let has_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "nowa_watchdog_last_scan_ns present" true
    (has_sub text "nowa_watchdog_last_scan_ns")

(* -- burn rate ----------------------------------------------------------- *)

module Burn = Nowa_obs.Burn_rate

let test_burn_rate_math () =
  let h = Nowa_obs.Histogram.create "burn_test" in
  let br =
    Burn.create
      ~windows:[| { Burn.long_s = 1.0; short_s = 0.5; factor = 2.0 } |]
      ~slo_ns:1_000 ~budget:0.1 ()
  in
  let s = 1_000_000_000 in
  (* t=0: 100 good requests. *)
  for _ = 1 to 100 do
    Nowa_obs.Histogram.observe h 10
  done;
  Burn.sample br h ~now_ns:0;
  (* t=0.75s (inside the short window ending at t=1s): 100 more, half
     of them over the SLO.  Both windows anchor at the t=0 sample, so
     burn = (50/100)/0.1 = 5x over both -> breach. *)
  for _ = 1 to 50 do
    Nowa_obs.Histogram.observe h 10
  done;
  for _ = 1 to 50 do
    Nowa_obs.Histogram.observe h 1_000_000
  done;
  Burn.sample br h ~now_ns:(3 * s / 4);
  let breaches = Burn.observe br h ~now_ns:s in
  Alcotest.(check int) "breach fires" 1 (List.length breaches);
  (match breaches with
  | [ b ] ->
    Alcotest.(check bool)
      (Printf.sprintf "long burn ~5x (got %.2f)" b.Burn.long_burn)
      true
      (b.Burn.long_burn > 4.0 && b.Burn.long_burn < 6.0)
  | _ -> ());
  (* A quiet follow-up window clears the short burn -> no breach. *)
  for _ = 1 to 100 do
    Nowa_obs.Histogram.observe h 10
  done;
  let later = Burn.observe br h ~now_ns:(2 * s) in
  Alcotest.(check int) "recovers" 0 (List.length later)

let test_burn_rate_all_good () =
  let h = Nowa_obs.Histogram.create "burn_good" in
  let br = Burn.create ~slo_ns:1_000_000 ~budget:0.01 () in
  for i = 0 to 10 do
    for _ = 1 to 50 do
      Nowa_obs.Histogram.observe h 500
    done;
    Alcotest.(check int) "never breaches" 0
      (List.length (Burn.observe br h ~now_ns:(i * 100_000_000)))
  done

(* -- verdict sources ----------------------------------------------------- *)

let test_source_feeds_watchdog () =
  Health.Inject.clear ();
  Health.register_source ~name:"test-src" (fun () ->
      [ Health.Convoy { shard = 7; depth = 3; held_ms = 99.0 } ]);
  Nowa.run ~conf:(conf ~watchdog:5 2) (fun () -> spin_ms 30);
  Health.unregister_source ~name:"test-src";
  let convoys =
    List.filter_map
      (function Health.Convoy { shard; _ } -> Some shard | _ -> None)
      (Health.verdicts ())
  in
  Alcotest.(check bool) "source verdict surfaced" true (List.mem 7 convoys)

(* -- KV combiner wedge --------------------------------------------------- *)

let test_kv_wedge_detected () =
  Health.Inject.clear ();
  let kv = Nowa_server.Kv.create ~shards:4 ~buckets_per_shard:8 () in
  Health.register_source ~name:"kv-test" (fun () ->
      Nowa_server.Kv.convoys ~hold_ms:20.0 ~min_depth:1 kv);
  let shard0_key =
    (* find a key homed on shard 0 so the wedge and the traffic meet *)
    let rec go k =
      if Nowa_server.Kv.shard_of_key kv k = 0 then k else go (k + 1)
    in
    go 0
  in
  Nowa_server.Kv.inject_wedge ~shard:0 ~ms:120;
  Nowa.run ~conf:(conf ~watchdog:10 4) (fun () ->
      Nowa.scope (fun sc ->
          (* One op claims shard 0 and wedges; the rest pile up behind
             the held combining flag. *)
          for i = 0 to 63 do
            Nowa.spawn_unit sc (fun () ->
                ignore
                  (Nowa_server.Kv.exec kv
                     (Nowa_server.Kv.Add (shard0_key, i))))
          done));
  Nowa_server.Kv.clear_wedge ();
  Health.unregister_source ~name:"kv-test";
  let convoys =
    List.filter_map
      (function Health.Convoy { shard; _ } -> Some shard | _ -> None)
      (Health.verdicts ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "shard 0 convoy flagged (verdicts: %s)"
       (String.concat "; "
          (List.map Health.verdict_to_string (Health.verdicts ()))))
    true (List.mem 0 convoys)

(* A key homed on shard 0, so the wedge and the traffic meet. *)
let shard0_key kv =
  let rec go k =
    if Nowa_server.Kv.shard_of_key kv k = 0 then k else go (k + 1)
  in
  go 0

(* The watchdog's shape with one request in flight: a wedge armed on
   shard 0 and a single request there.  The armed wedge keeps that
   request off the idle-shard path, so it waits in the mailbox behind
   the wedged claim and the convoy is visible (depth 1). *)
let test_kv_wedge_single_request () =
  Health.Inject.clear ();
  let kv = Nowa_server.Kv.create ~shards:4 ~buckets_per_shard:8 () in
  Health.register_source ~name:"kv-test" (fun () -> Nowa_server.Kv.convoys kv);
  let key = shard0_key kv in
  Nowa_server.Kv.inject_wedge ~shard:0 ~ms:300;
  Nowa.run ~conf:(conf ~watchdog:50 2) (fun () ->
      ignore (Nowa_server.Kv.exec kv (Nowa_server.Kv.Add (key, 1))));
  Nowa_server.Kv.clear_wedge ();
  Health.unregister_source ~name:"kv-test";
  let convoys =
    List.filter_map
      (function Health.Convoy { shard; _ } -> Some shard | _ -> None)
      (Health.verdicts ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "lone wedged request flagged (verdicts: %s)"
       (String.concat "; "
          (List.map Health.verdict_to_string (Health.verdicts ()))))
    true (List.mem 0 convoys)

(* -- convoy probe: counted claims ----------------------------------------- *)

(* One request on shard 0 behind an armed wedge, from its own domain:
   its claim holds shard 0's flag for [ms] with the request queued
   behind it.  Returns once the domain is about to submit. *)
let wedged_request kv ~ms =
  Nowa_server.Kv.inject_wedge ~shard:0 ~ms;
  let key = shard0_key kv in
  let started = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Atomic.set started true;
        ignore (Nowa_server.Kv.exec kv (Nowa_server.Kv.Add (key, 1))))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  d

let shard0_held_ms ~hold_ms kv =
  List.find_map
    (function
      | Health.Convoy { shard = 0; held_ms; _ } -> Some held_ms | _ -> None)
    (Nowa_server.Kv.convoys ~hold_ms kv)

(* With [hold_ms = 0] a claim is reported by the second scan that sees
   it held: polling until then leaves the probe having seen it. *)
let poll_until_seen kv =
  let stop = Unix.gettimeofday () +. 2.0 in
  let rec go () =
    match shard0_held_ms ~hold_ms:0.0 kv with
    | Some _ -> true
    | None when Unix.gettimeofday () < stop ->
      Unix.sleepf 0.002;
      go ()
    | None -> false
  in
  go ()

let test_probe_reports_held_claim () =
  let kv = Nowa_server.Kv.create ~shards:4 ~buckets_per_shard:8 () in
  let d = wedged_request kv ~ms:500 in
  let seen = poll_until_seen kv in
  Unix.sleepf 0.08;
  let later = shard0_held_ms ~hold_ms:50.0 kv in
  Domain.join d;
  Nowa_server.Kv.clear_wedge ();
  Alcotest.(check bool) "probe saw the wedged claim" true seen;
  match later with
  | Some held_ms ->
    Alcotest.(check bool)
      (Printf.sprintf "held_ms %.1f >= hold_ms 50" held_ms)
      true (held_ms >= 50.0)
  | None -> Alcotest.fail "claim held across scans 80ms apart not reported"

(* A release and a re-claim between two scans is a new claim: it is
   timed from the scan that first sees it, not from the old one. *)
let test_probe_reclaim_is_new () =
  let kv = Nowa_server.Kv.create ~shards:4 ~buckets_per_shard:8 () in
  let d1 = wedged_request kv ~ms:100 in
  let seen = poll_until_seen kv in
  Domain.join d1;
  (* No scan while the flag is free: only the claim count can tell. *)
  let d2 = wedged_request kv ~ms:500 in
  Unix.sleepf 0.05;
  let at_reclaim = shard0_held_ms ~hold_ms:20.0 kv in
  let after_scan = Unix.gettimeofday () in
  Unix.sleepf 0.05;
  let before_scan = Unix.gettimeofday () in
  let later = shard0_held_ms ~hold_ms:20.0 kv in
  Domain.join d2;
  Nowa_server.Kv.clear_wedge ();
  Alcotest.(check bool) "probe saw the first claim" true seen;
  Alcotest.(check (option (float 0.0))) "re-claim not reported" None at_reclaim;
  match later with
  | Some held_ms ->
    (* First seen by the [at_reclaim] scan, so that scan saw it held. *)
    let since = (before_scan -. after_scan) *. 1e3 in
    Alcotest.(check bool)
      (Printf.sprintf "held_ms %.1f counts from the re-claim scan (%.1f)"
         held_ms since)
      true (held_ms >= since)
  | None -> Alcotest.fail "re-claim never reported"

(* -- flight recorder ------------------------------------------------------ *)

let test_dump_on_verdict_writes_bundle () =
  Health.Inject.clear ();
  Health.Inject.stall ~worker:1 ~ms:120;
  let c = { (conf ~watchdog:20 ~dump:true 4) with Config.trace_capacity = 4096 } in
  Nowa.run ~conf:c (fun () ->
      Nowa.parallel_for ~grain:1 0 300 (fun _ -> spin_ms 1));
  Health.Inject.clear ();
  match Health.dumped () with
  | [] -> Alcotest.fail "no bundle written for an injected stall"
  | dir :: _ ->
    Alcotest.(check bool) "verdicts.json" true
      (Sys.file_exists (Filename.concat dir "verdicts.json"));
    Alcotest.(check bool) "metrics.prom" true
      (Sys.file_exists (Filename.concat dir "metrics.prom"));
    Alcotest.(check bool) "trace.json" true
      (Sys.file_exists (Filename.concat dir "trace.json"));
    (* The verdict table must be parseable enough to name the reason. *)
    let ic = open_in (Filename.concat dir "verdicts.json") in
    let len = in_channel_length ic in
    let body = really_input_string ic len in
    close_in ic;
    let has_sub s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names the stall" true
      (has_sub body "worker_stalled")

let test_dump_now_manual () =
  Health.Inject.clear ();
  let dir = Health.dump_now ~reason:"test manual!" in
  Alcotest.(check bool) "sanitised dir" true
    (Sys.file_exists (Filename.concat dir "verdicts.json"))

(* The runtime names every trace track [pool/local], the key the
   verdict table uses, so a two-pool timeline reads by pool in both
   exports: the post-run Perfetto file and the recorder's frozen
   window. *)
let test_trace_tracks_named_by_pool () =
  let module R = Nowa.Presets.Nowa in
  let c =
    {
      (Config.default ()) with
      Config.pools = [ Config.pool "main" ~workers:1; Config.pool "aux" ~workers:1 ];
      trace_capacity = 4096;
    }
  in
  R.run ~conf:c (fun () -> R.await (R.spawn_on (R.pool "aux") (fun () -> ())));
  let has_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let track = "\"name\":\"aux/0\"" in
  Alcotest.(check bool) "Perfetto JSON names aux/0" true
    (has_sub (Nowa.Perfetto.to_string (Option.get (R.last_trace ()))) track);
  let dir = Health.dump_now ~reason:"pool tracks" in
  let body =
    In_channel.with_open_bin (Filename.concat dir "trace.json")
      In_channel.input_all
  in
  Alcotest.(check bool) "bundle trace.json names aux/0" true (has_sub body track)

(* -- ring freeze under concurrent writers -------------------------------- *)

(* Property: a snapshot taken while 4 domains hammer their own rings
   never returns a torn event.  Writers encode a per-slot invariant
   (arg = ts lxor 0xABCD, arg2 = ts + 1) that any mixed-slot read would
   break. *)
let test_ring_snapshot_no_tear () =
  let n_workers = 4 in
  let cap = 256 in
  let tr = Nowa_trace.Trace.create ~workers:n_workers ~capacity:cap () in
  let stop = Atomic.make false in
  let writers =
    List.init n_workers (fun w ->
        Domain.spawn (fun () ->
            let r = Nowa_trace.Trace.worker tr w in
            let i = ref 0 in
            while not (Atomic.get stop) do
              incr i;
              let ts = !i in
              Nowa_trace.Ring.emit_at2 r ~ts Nowa_trace.Event.Spawn
                (ts lxor 0xABCD) (ts + 1);
              if !i land 63 = 0 then Domain.cpu_relax ()
            done))
  in
  let bad = ref 0 and seen = ref 0 in
  for _ = 1 to 200 do
    let per_worker, _dropped = Nowa_trace.Trace.freeze ~window:cap tr in
    Array.iter
      (fun evs ->
        Array.iter
          (fun (e : Nowa_trace.Event.t) ->
            incr seen;
            if
              e.Nowa_trace.Event.arg <> e.Nowa_trace.Event.ts lxor 0xABCD
              || e.Nowa_trace.Event.arg2 <> e.Nowa_trace.Event.ts + 1
            then incr bad)
          evs)
      per_worker
  done;
  Atomic.set stop true;
  List.iter Domain.join writers;
  Alcotest.(check int)
    (Printf.sprintf "no torn events in %d sampled" !seen)
    0 !bad;
  Alcotest.(check bool) "snapshots saw real traffic" true (!seen > 0)

let test_ring_snapshot_quiescent_exact () =
  (* Rings round capacity up to a power of two with a floor of 16. *)
  let r = Nowa_trace.Ring.create ~capacity:16 in
  Alcotest.(check int) "capacity floor" 16 (Nowa_trace.Ring.capacity r);
  for i = 1 to 5 do
    Nowa_trace.Ring.emit_at2 r ~ts:i Nowa_trace.Event.Spawn i 0
  done;
  let evs, dropped = Nowa_trace.Ring.snapshot r ~worker:0 in
  Alcotest.(check int) "all five kept" 5 (Array.length evs);
  Alcotest.(check int) "nothing dropped" 0 dropped;
  Array.iteri
    (fun i (e : Nowa_trace.Event.t) ->
      Alcotest.(check int) "in order" (i + 1) e.Nowa_trace.Event.ts)
    evs;
  (* Overflow: the snapshot window is the last [capacity] events; the
     overwritten prefix shows up in the ring's lifetime [dropped]
     counter, not as snapshot discards (the ring is quiescent, so every
     sampled slot is intact). *)
  for i = 6 to 40 do
    Nowa_trace.Ring.emit_at2 r ~ts:i Nowa_trace.Event.Spawn i 0
  done;
  let evs, discards = Nowa_trace.Ring.snapshot r ~worker:0 in
  Alcotest.(check int) "window = capacity" 16 (Array.length evs);
  Alcotest.(check int) "no discards when quiescent" 0 discards;
  Alcotest.(check int) "overwritten counted for the lifetime" 24
    (Nowa_trace.Ring.dropped r);
  Alcotest.(check int) "newest kept" 40
    evs.(Array.length evs - 1).Nowa_trace.Event.ts;
  Alcotest.(check int) "oldest surviving" 25 evs.(0).Nowa_trace.Event.ts

(* -- /healthz & /statusz -------------------------------------------------- *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        match Unix.read fd chunk 0 1024 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ();
      Buffer.contents buf)

let test_health_endpoints () =
  Health.Inject.clear ();
  match
    Nowa_obs.Server.start ~healthz:Health.healthz ~statusz:Health.statusz
      ~addr:"127.0.0.1:0" ()
  with
  | Error msg -> Alcotest.fail msg
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Nowa_obs.Server.stop srv)
      (fun () ->
        let port = Nowa_obs.Server.port srv in
        (* A clean run resets the verdict log left over from earlier
           test cases; healthz must then report healthy. *)
        ignore (Nowa.run ~conf:(conf ~watchdog:5 2) (fun () -> 7));
        let h = http_get port "/healthz" in
        Alcotest.(check bool) "healthz 200 on a healthy pool" true
          (String.length h >= 12 && String.sub h 9 3 = "200");
        (* Run with an injected stall so the status flips unhealthy. *)
        Health.Inject.stall ~worker:1 ~ms:120;
        Nowa.run ~conf:(conf ~watchdog:20 4) (fun () ->
            Nowa.parallel_for ~grain:1 0 300 (fun _ -> spin_ms 1));
        Health.Inject.clear ();
        let h = http_get port "/healthz" in
        Alcotest.(check bool)
          (Printf.sprintf "healthz 503 after stall verdict (%s)"
             (String.sub h 0 (min 40 (String.length h))))
          true
          (String.length h >= 12 && String.sub h 9 3 = "503");
        let s = http_get port "/statusz" in
        let has_sub str sub =
          let n = String.length str and m = String.length sub in
          let rec go i = i + m <= n && (String.sub str i m = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "statusz names the engine" true
          (has_sub s "nowa");
        Alcotest.(check bool) "statusz lists the stall" true
          (has_sub s "stalled (");
        (* Plain scrape still works alongside the routes. *)
        let m = http_get port "/metrics" in
        Alcotest.(check bool) "metrics route intact" true
          (has_sub m "nowa_watchdog_last_scan_ns"))

let () =
  Alcotest.run "health"
    [
      ( "inject",
        [
          Alcotest.test_case "task start spins once" `Quick test_inject_spins;
          Alcotest.test_case "parse_stall" `Quick test_parse_stall;
        ] );
      ( "watchdog",
        per_family "stall detected" test_stall_detected
        @ per_family "parked is not stalled" test_parked_is_not_stalled
        @ [
          Alcotest.test_case "busy is not stalled" `Quick
            test_busy_is_not_stalled;
          Alcotest.test_case "tied waiter is not stalled" `Quick
            test_tied_waiter_is_not_stalled;
          Alcotest.test_case "routing root is not stalled" `Quick
            test_routing_root_is_not_stalled;
        ]
        @ per_family ~among:spinning_families "idle spinning pool is not stalled"
            test_idle_spinning_pool_is_not_stalled
        @ [
          Alcotest.test_case "no monitor leak (100 lifecycles)" `Quick
            test_no_monitor_leak_across_lifecycles;
          Alcotest.test_case "scan gauge exported" `Quick
            test_scan_gauge_exported;
          Alcotest.test_case "verdict source polled" `Quick
            test_source_feeds_watchdog;
          Alcotest.test_case "kv wedge -> convoy verdict" `Quick
            test_kv_wedge_detected;
          Alcotest.test_case "kv wedge, one request -> convoy verdict" `Quick
            test_kv_wedge_single_request;
          Alcotest.test_case "probe reports a claim held across scans"
            `Quick test_probe_reports_held_claim;
          Alcotest.test_case "probe times a re-claim afresh" `Quick
            test_probe_reclaim_is_new;
        ] );
      ( "burn-rate",
        [
          Alcotest.test_case "breach math" `Quick test_burn_rate_math;
          Alcotest.test_case "all good, no breach" `Quick
            test_burn_rate_all_good;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "dump on verdict" `Quick
            test_dump_on_verdict_writes_bundle;
          Alcotest.test_case "manual dump" `Quick test_dump_now_manual;
          Alcotest.test_case "pool-named trace tracks" `Quick
            test_trace_tracks_named_by_pool;
        ] );
      ( "ring-freeze",
        [
          Alcotest.test_case "no tear under 4 writers" `Quick
            test_ring_snapshot_no_tear;
          Alcotest.test_case "quiescent exact" `Quick
            test_ring_snapshot_quiescent_exact;
        ] );
      ( "endpoints",
        [ Alcotest.test_case "healthz/statusz/metrics" `Quick test_health_endpoints ] );
    ]
