(* Tests for nowa_util: statistics (the paper's evaluation methodology),
   the xoshiro PRNG, backoff, table rendering, clock, padding. *)

open Nowa_util

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs a)

let check_float name expected actual =
  Alcotest.(check bool) name true (feq expected actual)

(* -- Stats ---------------------------------------------------------- *)

let test_mean () =
  check_float "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "singleton" 7.0 (Stats.mean [ 7.0 ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.mean []))

let test_stddev () =
  (* Sample stddev of 2,4,4,4,5,5,7,9 is sqrt(32/7). *)
  check_float "stddev" (sqrt (32.0 /. 7.0)) (Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ]);
  check_float "constant" 0.0 (Stats.stddev [ 3.0; 3.0; 3.0 ]);
  check_float "short" 0.0 (Stats.stddev [ 42.0 ])

let test_geomean () =
  check_float "geomean" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  check_float "identity" 5.0 (Stats.geomean [ 5.0; 5.0; 5.0 ])

let test_median () =
  check_float "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  check_float "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ])

let test_min_max () =
  check_float "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check_float "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ])

let test_speedup () =
  (* Paper methodology: speedups are per-run T_s/T_n, then geometric mean. *)
  let s = Stats.speedup_of_runs ~serial_mean:10.0 [ 2.0; 5.0 ] in
  check_float "geo of 5 and 2" (sqrt 10.0) s.Stats.geo;
  Alcotest.(check int) "runs" 2 s.Stats.runs;
  let flat = Stats.speedup_of_runs ~serial_mean:8.0 [ 2.0; 2.0; 2.0 ] in
  check_float "flat sd" 0.0 flat.Stats.sd

let test_ratio_geomean () =
  check_float "ratios" 2.0 (Stats.ratio_geomean [ (4.0, 2.0); (8.0, 4.0) ]);
  check_float "mixed" 1.0 (Stats.ratio_geomean [ (2.0, 1.0); (1.0, 2.0) ])

let test_percentile () =
  (* Nearest-rank: rank = ceil(p/100 * n), 1-based. *)
  let l = [ 15.0; 20.0; 35.0; 40.0; 50.0 ] in
  check_float "p30 of 5" 20.0 (Stats.percentile 30.0 l);
  check_float "p40 of 5" 20.0 (Stats.percentile 40.0 l);
  check_float "p50 of 5" 35.0 (Stats.percentile 50.0 l);
  check_float "p100 is max" 50.0 (Stats.percentile 100.0 l);
  check_float "p0 is min" 15.0 (Stats.percentile 0.0 l);
  check_float "unsorted input" 35.0 (Stats.percentile 50.0 [ 50.0; 15.0; 40.0; 20.0; 35.0 ])

let test_percentile_edges () =
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile 50.0 []));
  check_float "single p0" 7.0 (Stats.percentile 0.0 [ 7.0 ]);
  check_float "single p50" 7.0 (Stats.percentile 50.0 [ 7.0 ]);
  check_float "single p100" 7.0 (Stats.percentile 100.0 [ 7.0 ]);
  (* Out-of-range p clamps rather than raising. *)
  check_float "p>100 clamps" 9.0 (Stats.percentile 150.0 [ 1.0; 9.0 ]);
  check_float "p<0 clamps" 1.0 (Stats.percentile (-5.0) [ 1.0; 9.0 ])

(* -- Xoshiro --------------------------------------------------------- *)

let test_xoshiro_deterministic () =
  let a = Xoshiro.make ~seed:123 and b = Xoshiro.make ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Xoshiro.next a) (Xoshiro.next b)
  done

let test_xoshiro_seed_sensitivity () =
  let a = Xoshiro.make ~seed:1 and b = Xoshiro.make ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Xoshiro.next a) (Xoshiro.next b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_xoshiro_int_bounds () =
  let r = Xoshiro.make ~seed:5 in
  for bound = 1 to 50 do
    for _ = 1 to 50 do
      let v = Xoshiro.int r bound in
      Alcotest.(check bool) "in range" true (v >= 0 && v < bound)
    done
  done

let test_xoshiro_float_range () =
  let r = Xoshiro.make ~seed:9 in
  for _ = 1 to 1000 do
    let v = Xoshiro.float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_xoshiro_distribution () =
  (* Coarse uniformity: 10 buckets over 10_000 draws. *)
  let r = Xoshiro.make ~seed:77 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let b = Xoshiro.int r 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 700 && c < 1300))
    buckets

let test_xoshiro_split () =
  let r = Xoshiro.make ~seed:4 in
  let s = Xoshiro.split r in
  let equal_count = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Xoshiro.next r) (Xoshiro.next s) then incr equal_count
  done;
  Alcotest.(check bool) "split independent" true (!equal_count < 4)

(* Recorded from the generator with boxed [int64] state fields: [Wsim],
   knapsack's inputs and the committed simulator tables depend on the
   stream staying bit-identical. *)
let test_xoshiro_stream_pinned () =
  let r = Xoshiro.make ~seed:123 in
  List.iter
    (fun v -> Alcotest.(check int64) "next" v (Xoshiro.next r))
    [
      3628370374969813497L; -561292132998099618L; 8622752019489400367L;
      2342437615205057030L; 6230968350287952094L; -1710872939911062L;
      6972174322906985755L; -6333738554522461611L; -4408176657788248108L;
      8031771363777928304L; -6415492878863288390L; -4323378339223746483L;
      697772660079143621L; 5876297670408615156L; -6265409380721734544L;
      3423084930429465363L;
    ];
  let r = Xoshiro.make ~seed:123 in
  List.iteri
    (fun i v -> Alcotest.(check int) "int" v (Xoshiro.int r ((i + 1) * 1000)))
    [ 374; 999; 1091; 257; 3023; 2138; 4438; 4501; 8877; 2076; 9806; 11283;
      12905; 5789; 4268; 6340 ];
  let r = Xoshiro.make ~seed:77 in
  let s = Xoshiro.split r in
  Alcotest.(check int64) "split" (-2887341404766821762L) (Xoshiro.next s);
  Alcotest.(check (float 0.)) "float" 0x1.d0c6ee094c48p-3 (Xoshiro.float r)

(* The idle loop draws a victim per round under the random policy. *)
let test_xoshiro_int_no_alloc () =
  let r = Xoshiro.make ~seed:5 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    ignore (Sys.opaque_identity (Xoshiro.int r 97))
  done;
  Alcotest.(check (float 0.)) "minor words over 100,000 draws" 0.
    (Gc.minor_words () -. w0)

let prop_xoshiro_int_in_bounds =
  QCheck.Test.make ~name:"xoshiro int always within bound" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Xoshiro.make ~seed in
      let v = Xoshiro.int r bound in
      v >= 0 && v < bound)

(* -- Backoff --------------------------------------------------------- *)

let test_backoff_growth () =
  (* Width doubles from min_spins, saturates at max_spins, and reset
     restores it. *)
  let b = Backoff.make ~min_spins:2 ~max_spins:16 () in
  Alcotest.(check int) "initial width" 2 (Backoff.spins b);
  Backoff.once b;
  Alcotest.(check int) "doubled" 4 (Backoff.spins b);
  Backoff.once b;
  Alcotest.(check int) "doubled again" 8 (Backoff.spins b);
  Backoff.once b;
  Alcotest.(check int) "at cap" 16 (Backoff.spins b);
  Backoff.once b;
  Backoff.once b;
  Alcotest.(check int) "saturated" 16 (Backoff.spins b);
  Backoff.reset b;
  Alcotest.(check int) "width back to min" 2 (Backoff.spins b)

let test_backoff_defaults () =
  let b = Backoff.make () in
  Alcotest.(check int) "default min" 4 (Backoff.spins b);
  for _ = 1 to 20 do
    Backoff.once b
  done;
  Alcotest.(check int) "default cap" 1024 (Backoff.spins b)

(* -- Clock ----------------------------------------------------------- *)

let test_clock_never_backwards () =
  (* Clock.now_ns reads CLOCK_MONOTONIC, which the kernel never steps
     backwards: rapid consecutive reads must be non-decreasing. *)
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 100_000 do
    let t = Clock.now_ns () in
    if t < !prev then
      Alcotest.failf "clock went backwards: %d after %d" t !prev;
    prev := t
  done

let test_clock_monotonic_enough () =
  let t0 = Clock.now_ns () in
  let dt, () = Clock.time_it (fun () -> Clock.spin_ns 1_000_000) in
  let t1 = Clock.now_ns () in
  Alcotest.(check bool) "advanced" true (t1 > t0);
  Alcotest.(check bool) "spin took at least ~1ms" true (dt >= 0.0005)

(* Trace spans and the engine's re-exposure deadline time intervals of a
   few microseconds, so a read must resolve well below that: two reads
   around a ~2 us spin differ, and the smallest nonzero step between
   back-to-back reads is under half a microsecond (a microsecond clock
   steps by 1,000 ns at best). *)
let test_clock_resolution () =
  let spin_2us () =
    let t0 = Clock.now_ns () in
    Clock.spin_ns 2_000;
    Clock.now_ns () - t0
  in
  let d = spin_2us () in
  Alcotest.(check bool) "reads around a 2us spin differ" true (d > 0);
  let step = ref max_int in
  for _ = 1 to 10_000 do
    let a = Clock.now_ns () in
    let b = Clock.now_ns () in
    if b > a then step := min !step (b - a)
  done;
  if !step >= 500 then Alcotest.failf "smallest clock step %d ns" !step

(* -- Table ----------------------------------------------------------- *)

let test_table_render () =
  let out =
    Table.render ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "bc"; "23" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "line count" 5 (List.length lines);
  Alcotest.(check string) "header" "| name | value |" (List.nth lines 0);
  Alcotest.(check string) "separator" "|------|-------|" (List.nth lines 1);
  Alcotest.(check string) "right-aligned numbers" "| a    |     1 |" (List.nth lines 2)

let test_table_ragged_rows () =
  let out = Table.render ~header:[ "a"; "b"; "c" ] [ [ "x" ] ] in
  Alcotest.(check bool) "renders without exception" true (String.length out > 0)

(* -- Padding --------------------------------------------------------- *)

let test_padding_atomic () =
  let a = Padding.atomic 41 in
  Atomic.incr a;
  Alcotest.(check int) "works as atomic" 42 (Atomic.get a);
  Alcotest.(check bool) "one field, then a line of padding" true
    (Obj.size (Obj.repr a) = 1 + Padding.cache_line_words)

(* Twenty fields, as [Metrics.worker] has. *)
type wide = {
  mutable w0 : int; w1 : int; w2 : int; w3 : int; w4 : int; w5 : int; w6 : int;
  w7 : int; w8 : int; w9 : int; w10 : int; w11 : int; w12 : int; w13 : int;
  w14 : int; w15 : int; w16 : int; w17 : int; w18 : int; mutable w19 : int;
}

let wide i =
  { w0 = i; w1 = i; w2 = i; w3 = i; w4 = i; w5 = i; w6 = i; w7 = i; w8 = i;
    w9 = i; w10 = i; w11 = i; w12 = i; w13 = i; w14 = i; w15 = i; w16 = i;
    w17 = i; w18 = i; w19 = i }

(* A value read as an int is its address halved, give or take a constant
   that cancels in differences.  The minor GC promotes young blocks into
   size-classed pools, packed together: spacer blocks allocated beside a
   cell would be gone, and only padding inside the block keeps two cells
   apart. *)
let test_padding_apart_after_promotion () =
  let cells = Array.init 64 Padding.atomic in
  let records = Array.init 8 (fun i -> Padding.isolate (fun () -> wide i)) in
  Gc.minor ();
  let addr v = 2 * (Obj.magic v : int) in
  (* First and last real field of each block. *)
  let spans =
    Array.append
      (Array.map (fun c -> (addr c, addr c)) cells)
      (Array.map (fun r -> (addr r, addr r + (8 * 19))) records)
  in
  let line = 8 * Padding.cache_line_words in
  let closest = ref max_int in
  Array.iteri
    (fun i (lo, hi) ->
      Array.iteri
        (fun j (lo', hi') ->
          if i < j then
            closest := Int.min !closest (if lo' > hi then lo' - hi else lo - hi'))
        spans)
    spans;
  Alcotest.(check bool)
    (Printf.sprintf "closest real fields %d bytes apart, at least %d" !closest line)
    true (!closest >= line);
  Gc.full_major ();
  Gc.compact ();
  Array.iteri
    (fun i c ->
      Alcotest.(check int) "get" i (Atomic.get c);
      Atomic.set c (i + 1);
      Alcotest.(check bool) "cas" true (Atomic.compare_and_set c (i + 1) (i + 2));
      Alcotest.(check int) "fetch_and_add" (i + 2) (Atomic.fetch_and_add c 3);
      Alcotest.(check int) "after add" (i + 5) (Atomic.get c))
    cells;
  Array.iteri
    (fun i r ->
      r.w19 <- r.w19 + r.w0;
      Alcotest.(check (list int)) "fields copied" [ i; i; 2 * i ] [ r.w0; r.w10; r.w19 ])
    records;
  Alcotest.check_raises "a float array is not a record"
    (Invalid_argument "Padding.isolate: not a record") (fun () ->
      ignore (Padding.isolate (fun () -> [| 1.0; 2.0 |])))

(* -- Cpu ------------------------------------------------------------- *)

let test_cpu () =
  Alcotest.(check bool) "at least one core" true (Cpu.available_cores () >= 1);
  Alcotest.(check bool) "workers positive" true (Cpu.default_workers () >= 1)

(* -- Splitmix -------------------------------------------------------- *)

let test_splitmix_deterministic () =
  let a = Splitmix.make ~seed:42 and b = Splitmix.make ~seed:42 in
  for i = 0 to 99 do
    Alcotest.(check int64)
      (Printf.sprintf "same seed, draw %d" i)
      (Splitmix.next a) (Splitmix.next b)
  done;
  let c = Splitmix.make ~seed:43 in
  let differs = ref false in
  for _ = 0 to 9 do
    if not (Int64.equal (Splitmix.next a) (Splitmix.next c)) then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_splitmix_bounds () =
  let r = Splitmix.make ~seed:7 in
  for _ = 0 to 999 do
    let i = Splitmix.int r 10 in
    Alcotest.(check bool) "int in [0,10)" true (i >= 0 && i < 10);
    let f = Splitmix.float r in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_splitmix_split_independent () =
  (* The child stream must neither mirror the parent's continuation nor
     depend on when the parent is consumed relative to it. *)
  let p1 = Splitmix.make ~seed:42 in
  let c1 = Splitmix.split p1 in
  let child_first = Array.init 20 (fun _ -> Splitmix.next c1) in
  let parent_after = Array.init 20 (fun _ -> Splitmix.next p1) in
  Alcotest.(check bool)
    "child differs from parent continuation" true
    (child_first <> parent_after);
  (* Interleaving parent draws between child draws must not change the
     child stream (the whole point of splitting). *)
  let p2 = Splitmix.make ~seed:42 in
  let c2 = Splitmix.split p2 in
  let child_interleaved =
    Array.init 20 (fun _ ->
        ignore (Splitmix.next p2);
        Splitmix.next c2)
  in
  Alcotest.(check bool) "child stream stable under interleaving" true
    (child_first = child_interleaved)

let test_splitmix_scramble () =
  Alcotest.(check int) "stateless" (Splitmix.scramble 123) (Splitmix.scramble 123);
  for k = 0 to 999 do
    Alcotest.(check bool) "non-negative" true (Splitmix.scramble k >= 0)
  done;
  (* Adjacent inputs should land far apart (avalanche): count collisions
     of the low byte across consecutive keys — a linear map would give
     long runs. *)
  let same_low = ref 0 in
  for k = 0 to 999 do
    if Splitmix.scramble k land 0xff = Splitmix.scramble (k + 1) land 0xff then
      incr same_low
  done;
  Alcotest.(check bool) "low bits avalanche" true (!same_low < 30)

(* -- Zipf ------------------------------------------------------------ *)

let test_zipf_bounds_and_determinism () =
  let z = Zipf.create ~n:100 ~theta:0.99 in
  Alcotest.(check int) "n" 100 (Zipf.n z);
  let a = Splitmix.make ~seed:1 and b = Splitmix.make ~seed:1 in
  for _ = 0 to 9_999 do
    let ra = Zipf.draw z a and rb = Zipf.draw z b in
    Alcotest.(check int) "deterministic under fixed seed" ra rb;
    Alcotest.(check bool) "rank in [0,n)" true (ra >= 0 && ra < 100)
  done;
  (* Invalid parameters are rejected. *)
  Alcotest.check_raises "n too small"
    (Invalid_argument "Zipf.create: n must be >= 2") (fun () ->
      ignore (Zipf.create ~n:1 ~theta:0.5))

let test_zipf_rank1_frequency () =
  (* Statistical sanity: the empirical frequency of the hottest rank
     matches the analytic pmf within a few percent.  100k draws, so the
     binomial standard error on rank 0 (p ~ 0.19 at n=100, theta=0.99)
     is ~0.12% absolute — a 5% relative tolerance is ~10 sigma. *)
  let n = 100 and draws = 100_000 in
  let z = Zipf.create ~n ~theta:0.99 in
  let rng = Splitmix.make ~seed:42 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Zipf.draw z rng in
    counts.(r) <- counts.(r) + 1
  done;
  let emp r = float_of_int counts.(r) /. float_of_int draws in
  let expect0 = Zipf.expected_freq z 0 in
  Alcotest.(check bool)
    (Printf.sprintf "rank-0 frequency %.4f within 5%% of %.4f" (emp 0) expect0)
    true
    (Float.abs (emp 0 -. expect0) <= 0.05 *. expect0);
  (* Monotone decay along the head of the distribution. *)
  Alcotest.(check bool) "rank 0 hotter than rank 1" true (counts.(0) > counts.(1));
  Alcotest.(check bool) "rank 1 hotter than rank 10" true (counts.(1) > counts.(10));
  (* The pmf itself sums to ~1. *)
  let total = ref 0.0 in
  for r = 0 to n - 1 do
    total := !total +. Zipf.expected_freq z r
  done;
  Alcotest.(check bool) "pmf sums to 1" true (feq ~eps:1e-6 1.0 !total)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "nowa_util"
    [
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "min/max" `Quick test_min_max;
          Alcotest.test_case "speedup methodology" `Quick test_speedup;
          Alcotest.test_case "ratio geomean" `Quick test_ratio_geomean;
          Alcotest.test_case "percentile nearest-rank" `Quick test_percentile;
          Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
        ] );
      ( "xoshiro",
        [
          Alcotest.test_case "deterministic" `Quick test_xoshiro_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_xoshiro_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_xoshiro_int_bounds;
          Alcotest.test_case "float range" `Quick test_xoshiro_float_range;
          Alcotest.test_case "distribution" `Quick test_xoshiro_distribution;
          Alcotest.test_case "split" `Quick test_xoshiro_split;
          Alcotest.test_case "stream pinned" `Quick test_xoshiro_stream_pinned;
          Alcotest.test_case "int allocates nothing" `Quick test_xoshiro_int_no_alloc;
          qc prop_xoshiro_int_in_bounds;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "growth+cap+reset" `Quick test_backoff_growth;
          Alcotest.test_case "defaults" `Quick test_backoff_defaults;
        ] );
      ( "clock",
        [
          Alcotest.test_case "never backwards" `Quick test_clock_never_backwards;
          Alcotest.test_case "monotonic+spin" `Quick test_clock_monotonic_enough;
          Alcotest.test_case "resolution" `Quick test_clock_resolution;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "ragged" `Quick test_table_ragged_rows;
        ] );
      ( "padding",
        [
          Alcotest.test_case "atomic" `Quick test_padding_atomic;
          Alcotest.test_case "apart after promotion" `Quick
            test_padding_apart_after_promotion;
        ] );
      ("cpu", [ Alcotest.test_case "cores" `Quick test_cpu ]);
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "bounds" `Quick test_splitmix_bounds;
          Alcotest.test_case "split independence" `Quick
            test_splitmix_split_independent;
          Alcotest.test_case "scramble" `Quick test_splitmix_scramble;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "bounds+determinism" `Quick
            test_zipf_bounds_and_determinism;
          Alcotest.test_case "rank-1 frequency" `Quick test_zipf_rank1_frequency;
        ] );
    ]
