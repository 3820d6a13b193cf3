(* Tests for the live observability layer: metric primitives, registry
   snapshots under concurrent writers, Prometheus exposition (golden)
   and the TCP endpoint while a real Nowa computation runs. *)

module Obs = Nowa_obs

(* -- counters under concurrency ------------------------------------------ *)

let test_counter_concurrent_snapshots () =
  let registry = Obs.Registry.create () in
  let c = Obs.Registry.counter ~registry "test_ops_total" ~help:"ops" in
  let per_domain = 100_000 and domains = 4 in
  let value_of_snapshot () =
    match
      List.find_opt
        (fun (s : Obs.Registry.sample) -> s.name = "test_ops_total")
        (Obs.Registry.snapshot ~registry ())
    with
    | Some { value = Obs.Registry.Counter v; _ } -> int_of_float v
    | _ -> Alcotest.fail "counter sample missing"
  in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Counter.incr c
            done))
  in
  (* Relaxed snapshots while the writers run: each must be within range
     and the sequence monotone (counters never go backwards). *)
  let last = ref 0 in
  for _ = 1 to 50 do
    let v = value_of_snapshot () in
    Alcotest.(check bool) "snapshot in range"
      true
      (v >= !last && v <= domains * per_domain);
    last := v
  done;
  List.iter Domain.join ds;
  (* Quiescent: the sum is exact, nothing was lost to sharding. *)
  Alcotest.(check int) "exact total after join" (domains * per_domain)
    (Obs.Counter.value c)

let test_gauge () =
  let g = Obs.Gauge.create "test_gauge" in
  Obs.Gauge.set g 42;
  Obs.Gauge.add g (-2);
  Alcotest.(check int) "set/add" 40 (Obs.Gauge.value g);
  Obs.Gauge.decr g;
  Alcotest.(check int) "decr" 39 (Obs.Gauge.value g)

let test_registry_duplicate_rejected () =
  let registry = Obs.Registry.create () in
  let _ = Obs.Registry.counter ~registry "dup" in
  match Obs.Registry.gauge ~registry "dup" with
  | _ -> Alcotest.fail "duplicate registration must raise"
  | exception Invalid_argument _ -> ()

(* -- histogram bucket boundaries ----------------------------------------- *)

let test_histogram_buckets () =
  let h = Obs.Histogram.create "test_hist" in
  List.iter (Obs.Histogram.observe h) [ 0; 1; 2; 3; 4; 7; 8 ];
  let s = Obs.Histogram.snapshot h in
  (* Bucket i >= 1 covers [2^(i-1), 2^i): 0 | 1 | 2-3 | 4-7 | 8-15. *)
  Alcotest.(check int) "bucket 0 (v<=0)" 1 s.Obs.Histogram.counts.(0);
  Alcotest.(check int) "bucket 1 (v=1)" 1 s.Obs.Histogram.counts.(1);
  Alcotest.(check int) "bucket 2 (2-3)" 2 s.Obs.Histogram.counts.(2);
  Alcotest.(check int) "bucket 3 (4-7)" 2 s.Obs.Histogram.counts.(3);
  Alcotest.(check int) "bucket 4 (8-15)" 1 s.Obs.Histogram.counts.(4);
  Alcotest.(check int) "count" 7 s.Obs.Histogram.count;
  Alcotest.(check (float 1e-9)) "sum" 25.0 s.Obs.Histogram.sum;
  (* Inclusive upper bounds are 2^i - 1. *)
  Alcotest.(check (float 1e-9)) "le(0)" 0.0 s.Obs.Histogram.le.(0);
  Alcotest.(check (float 1e-9)) "le(3)" 7.0 s.Obs.Histogram.le.(3);
  (* Median of {0,1,2,3,4,7,8} lies in bucket 2, upper bound 3. *)
  Alcotest.(check (float 1e-9)) "p50 bucket bound" 3.0
    (Obs.Histogram.percentile h 0.5);
  (* Values beyond the last bucket boundary are clamped, not dropped. *)
  Obs.Histogram.observe h max_int;
  Alcotest.(check int) "overflow clamped into last bucket" 8
    (Obs.Histogram.count h)

let test_histogram_empty_percentile () =
  let h = Obs.Histogram.create "test_empty" in
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Obs.Histogram.percentile h 0.99))

(* -- interpolated quantiles (golden) -------------------------------------- *)

let test_histogram_quantile_golden () =
  (* Golden sample with known exact percentiles: 1..1000, where the
     q-th percentile is q*1000.  Unlike [percentile] (nearest bucket
     upper bound, so up to 2x off), the interpolated estimator must land
     within 5% relative error even at the tails. *)
  let h = Obs.Histogram.create "test_quant" in
  for v = 1 to 1000 do
    Obs.Histogram.observe h v
  done;
  List.iter
    (fun (q, exact) ->
      let est = Obs.Histogram.quantile h q in
      let rel = Float.abs (est -. exact) /. exact in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.3f: estimate %.1f within 5%% of %.0f" q est exact)
        true (rel <= 0.05))
    [ (0.10, 100.0); (0.50, 500.0); (0.90, 900.0); (0.99, 990.0); (0.999, 999.0) ];
  (* Monotone in q. *)
  Alcotest.(check bool) "p50 <= p99" true
    (Obs.Histogram.quantile h 0.5 <= Obs.Histogram.quantile h 0.99);
  Alcotest.(check bool) "p99 <= p999" true
    (Obs.Histogram.quantile h 0.99 <= Obs.Histogram.quantile h 0.999);
  (* q is clamped to [0,1]. *)
  Alcotest.(check (float 1e-9)) "q>1 clamps" (Obs.Histogram.quantile h 1.0)
    (Obs.Histogram.quantile h 1.5);
  (* Edge cases: empty is nan, all-zero sample estimates 0. *)
  let empty = Obs.Histogram.create "test_quant_empty" in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Obs.Histogram.quantile empty 0.5));
  let zeros = Obs.Histogram.create "test_quant_zeros" in
  for _ = 1 to 10 do
    Obs.Histogram.observe zeros 0
  done;
  Alcotest.(check (float 1e-9)) "all-zero sample" 0.0
    (Obs.Histogram.quantile zeros 0.99)

(* -- Prometheus exposition (golden) -------------------------------------- *)

let test_prometheus_golden () =
  let registry = Obs.Registry.create () in
  let c = Obs.Registry.counter ~registry "test_requests_total" ~help:"Total requests." in
  Obs.Counter.add c 3;
  let g = Obs.Registry.gauge ~registry "test_temp" in
  Obs.Gauge.set g 7;
  let h = Obs.Registry.histogram ~registry "test_lat" ~help:"Latency." in
  Obs.Histogram.observe h 1;
  Obs.Histogram.observe h 3;
  let expected =
    String.concat "\n"
      [
        "# HELP test_lat Latency.";
        "# TYPE test_lat histogram";
        "test_lat_bucket{le=\"0\"} 0";
        "test_lat_bucket{le=\"1\"} 1";
        "test_lat_bucket{le=\"3\"} 2";
        "test_lat_bucket{le=\"+Inf\"} 2";
        "test_lat_sum 4";
        "test_lat_count 2";
        "# HELP test_requests_total Total requests.";
        "# TYPE test_requests_total counter";
        "test_requests_total 3";
        "# TYPE test_temp gauge";
        "test_temp 7";
        "";
      ]
  in
  Alcotest.(check string) "golden exposition" expected
    (Obs.Expose.to_prometheus ~registry ())

(* Serve-latency exposition: the aggregate serve histogram must scrape as
   cumulative le-buckets (Prometheus histogram convention) so SLO math
   works on the raw lines.  Uses the default registry, like a real serve
   run; assertions are structural so other tests' metrics don't matter. *)
let test_serve_latency_buckets () =
  let module SM = Nowa_server.Serve_metrics in
  SM.observe Nowa_server.Workload.Read 800;
  SM.observe Nowa_server.Workload.Update 6_000;
  SM.observe Nowa_server.Workload.Read 130_000;
  SM.observe_phase 0 500;
  let body = Obs.Expose.to_prometheus () in
  let lines = String.split_on_char '\n' body in
  let prefixed p l = String.length l >= String.length p
                     && String.sub l 0 (String.length p) = p in
  let buckets =
    List.filter (prefixed "nowa_serve_latency_ns_bucket{le=\"") lines
  in
  Alcotest.(check bool) "several le-buckets emitted" true
    (List.length buckets >= 3);
  let count_of l =
    match String.rindex_opt l ' ' with
    | Some i ->
      int_of_string (String.sub l (i + 1) (String.length l - i - 1))
    | None -> Alcotest.failf "unparseable bucket line: %s" l
  in
  let counts = List.map count_of buckets in
  let rec monotone = function
    | a :: (b :: _ as tl) -> a <= b && monotone tl
    | _ -> true
  in
  Alcotest.(check bool) "bucket counts cumulative" true (monotone counts);
  (* The +Inf bucket closes the series and equals the sample count. *)
  let inf =
    List.filter (prefixed "nowa_serve_latency_ns_bucket{le=\"+Inf\"}") lines
  in
  Alcotest.(check int) "one +Inf bucket" 1 (List.length inf);
  let total =
    List.find (prefixed "nowa_serve_latency_ns_count") lines |> count_of
  in
  Alcotest.(check int) "+Inf equals _count" total (count_of (List.hd inf));
  Alcotest.(check bool) "all observations counted" true (total >= 3);
  (* Per-class and per-phase series ride along on the same scrape. *)
  Alcotest.(check bool) "read class series present" true
    (List.exists (prefixed "nowa_serve_read_latency_ns_bucket{le=") lines);
  Alcotest.(check bool) "sched_wait phase series present" true
    (List.exists (prefixed "nowa_serve_phase_sched_wait_ns_bucket{le=") lines)

(* -- TCP endpoint while a computation runs ------------------------------- *)

let http_get ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      let req = Bytes.of_string "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write sock req 0 (Bytes.length req));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read sock chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let rec fib n =
  if n < 2 then n
  else
    Nowa.scope (fun sc ->
        let a = Nowa.spawn sc (fun () -> fib (n - 1)) in
        let b = fib (n - 2) in
        Nowa.sync sc;
        Nowa.get a + b)

let test_server_scrape_during_run () =
  match Obs.Server.start ~addr:"127.0.0.1:0" () with
  | Error e -> Alcotest.failf "server start: %s" e
  | Ok server ->
    Fun.protect
      ~finally:(fun () -> Obs.Server.stop server)
      (fun () ->
        let port = Obs.Server.port server in
        (* Run a real computation on a separate domain and scrape the
           default registry while its workers are live. *)
        let runner =
          Domain.spawn (fun () ->
              let conf = Nowa.Config.with_workers 2 in
              Nowa.run ~conf (fun () -> fib 27))
        in
        let body = http_get ~port in
        Alcotest.(check bool) "HTTP 200" true
          (String.length body > 0
          && String.sub body 0 15 = "HTTP/1.0 200 OK");
        (* The engine publishes its metrics source when the run starts,
           so on a loaded box an early scrape can win that race and see
           no scheduler counters yet.  Poll while the run is live; the
           source stays published after the join, so the post-join
           scrape below is a guaranteed fallback. *)
        let rec poll tries =
          let b = http_get ~port in
          if tries = 0 || contains b "nowa_scheduler_spawns_total" then b
          else poll (tries - 1)
        in
        let during = poll 1_000 in
        let result = Domain.join runner in
        Alcotest.(check int) "computation correct" 196418 result;
        let counters =
          if contains during "nowa_scheduler_spawns_total" then during
          else http_get ~port
        in
        Alcotest.(check bool) "serves scheduler counters" true
          (contains counters "nowa_scheduler_spawns_total");
        Alcotest.(check bool) "serves sync histograms" true
          (contains counters "nowa_sync_wfc_rmw_retries_bucket");
        (* A second scrape must also succeed (server loops). *)
        let body2 = http_get ~port in
        Alcotest.(check bool) "second scrape" true
          (contains body2 "nowa_scheduler_workers"))

(* -- the scheduler's series -------------------------------------------- *)

(* The benchmark reads a missing series as 0, so a renamed scheduler
   series would silently zero its rows: the names are pinned here.  Two
   pools add the pool-labelled variants of five of them. *)
let scheduler_series =
  let total = Printf.sprintf "nowa_scheduler_%s_total" in
  [ "nowa_scheduler_workers"; "nowa_scheduler_steal_sweep_length" ]
  @ List.map total
      [ "spawns"; "inlined_spawns"; "steals"; "steal_attempts";
        "lost_continuations"; "suspensions"; "fast_syncs"; "fused_syncs";
        "resumes"; "tasks"; "stack_acquires"; "stack_releases"; "parks";
        "parked_ns"; "wakeups"; "wake_retries"; "routed"; "idle_rounds" ]
  @ List.concat_map
      (fun s -> [ total s ^ "{pool=\"aux\"}"; total s ^ "{pool=\"main\"}" ])
      [ "spawns"; "steals"; "tasks"; "parks"; "suspensions" ]

let test_scheduler_series_golden () =
  let conf =
    { (Nowa.Config.default ()) with
      Nowa.Config.pools =
        [ Nowa.Config.pool "main" ~workers:1; Nowa.Config.pool "aux" ~workers:1 ] }
  in
  Alcotest.(check int) "result" 521
    (Nowa.run ~conf (fun () ->
         fib 12 + Nowa.await (Nowa.spawn_on (Nowa.pool "aux") (fun () -> fib 14))));
  let m = Option.get (Nowa.last_metrics ()) in
  let samples =
    List.filter
      (fun (s : Obs.Registry.sample) -> String.starts_with ~prefix:"nowa_scheduler_" s.name)
      (Obs.Registry.snapshot ())
  in
  Alcotest.(check (list string)) "series names"
    (List.sort String.compare scheduler_series)
    (List.map (fun (s : Obs.Registry.sample) -> s.name) samples);
  (* Every row's three views agree: the series, [Metrics.total] and the
     [label=total] cell that [nowa_run --verbose] prints. *)
  let printed = Format.asprintf "%a" Nowa.Metrics.pp m in
  Array.iter
    (fun (r : Nowa.Metrics.row) ->
      let total = Nowa.Metrics.total m r.kind in
      (match List.find (fun (s : Obs.Registry.sample) -> s.name = r.name) samples with
      | { value = Obs.Registry.Counter v; _ } ->
        Alcotest.(check int) r.name total (int_of_float v)
      | _ -> Alcotest.failf "%s: not a counter" r.name);
      let cell = Printf.sprintf " %s=%d" r.label total in
      Alcotest.(check bool) ("pp prints" ^ cell) true (contains printed cell))
    Nowa.Metrics.table

let test_server_malformed_addr () =
  (match Obs.Server.parse_addr "notaport" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse");
  (match Obs.Server.parse_addr "127.0.0.1:99999" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range port must not parse");
  match Obs.Server.parse_addr "9090" with
  | Ok (_, 9090) -> ()
  | _ -> Alcotest.fail "bare port must parse"

let () =
  Alcotest.run "nowa_obs"
    [
      ( "counter",
        [
          Alcotest.test_case "concurrent snapshots" `Quick
            test_counter_concurrent_snapshots;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "duplicate rejected" `Quick
            test_registry_duplicate_rejected;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "empty percentile" `Quick
            test_histogram_empty_percentile;
          Alcotest.test_case "interpolated quantile golden" `Quick
            test_histogram_quantile_golden;
        ] );
      ( "expose",
        [
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "scheduler series golden" `Quick
            test_scheduler_series_golden;
          Alcotest.test_case "serve latency buckets" `Quick
            test_serve_latency_buckets;
        ] );
      ( "server",
        [
          Alcotest.test_case "scrape during run" `Quick
            test_server_scrape_during_run;
          Alcotest.test_case "malformed addr" `Quick test_server_malformed_addr;
        ] );
    ]
