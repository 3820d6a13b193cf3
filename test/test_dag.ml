(* Tests for the DAG model, the trace recorder, the Intq ring deque, and
   the discrete-event work-stealing simulator. *)

module D = Nowa_dag

(* -- hand-built DAGs ------------------------------------------------------ *)

(* The canonical single-spawn diamond:
   root strand -> spawn -> {child strand, continuation strand} -> sync -> tail. *)
let diamond ~child_work ~cont_work =
  let d = D.Dag.create () in
  let root = D.Dag.add_strand d ~work:10.0 in
  D.Dag.set_root d root;
  let sync = D.Dag.add_sync d in
  let sp = D.Dag.add_spawn d ~frame:sync in
  D.Dag.add_edge d root sp;
  let child = D.Dag.add_strand d ~work:child_work in
  D.Dag.add_edge d sp child;
  let cont = D.Dag.add_strand d ~work:cont_work in
  D.Dag.mark_main_arrival d cont;
  D.Dag.add_edge d sp cont;
  D.Dag.add_edge d child sync;
  D.Dag.add_edge d cont sync;
  let tail = D.Dag.add_strand d ~work:5.0 in
  D.Dag.add_edge d sync tail;
  D.Dag.set_final d tail;
  d

let test_diamond_analysis () =
  let d = diamond ~child_work:100.0 ~cont_work:30.0 in
  (match D.Dag.validate d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e);
  Alcotest.(check (float 1e-9)) "work" 145.0 (D.Dag.total_work d);
  Alcotest.(check (float 1e-9)) "span = root+max(branches)+tail" 115.0 (D.Dag.span d);
  Alcotest.(check (float 1e-6)) "parallelism" (145.0 /. 115.0) (D.Dag.parallelism d);
  Alcotest.(check int) "spawns" 1 (D.Dag.count d D.Dag.Spawn);
  Alcotest.(check int) "syncs" 1 (D.Dag.count d D.Dag.Sync);
  Alcotest.(check int) "strands" 4 (D.Dag.count d D.Dag.Strand)

let test_validate_catches_broken_dags () =
  (* Missing continuation edge: spawn with out-degree 1. *)
  let d = D.Dag.create () in
  let root = D.Dag.add_strand d ~work:1.0 in
  D.Dag.set_root d root;
  let sync = D.Dag.add_sync d in
  let sp = D.Dag.add_spawn d ~frame:sync in
  D.Dag.add_edge d root sp;
  let child = D.Dag.add_strand d ~work:1.0 in
  D.Dag.add_edge d sp child;
  D.Dag.add_edge d child sync;
  let tail = D.Dag.add_strand d ~work:1.0 in
  D.Dag.add_edge d sync tail;
  D.Dag.set_final d tail;
  (match D.Dag.validate d with
  | Ok () -> Alcotest.fail "expected validation failure"
  | Error _ -> ());
  (* Empty DAG. *)
  (match D.Dag.validate (D.Dag.create ()) with
  | Ok () -> Alcotest.fail "empty DAG must not validate"
  | Error _ -> ())

let test_growth_beyond_initial_capacity () =
  let d = D.Dag.create () in
  let prev = ref (D.Dag.add_strand d ~work:1.0) in
  D.Dag.set_root d !prev;
  for _ = 1 to 5_000 do
    let v = D.Dag.add_strand d ~work:1.0 in
    D.Dag.add_edge d !prev v;
    prev := v
  done;
  D.Dag.set_final d !prev;
  Alcotest.(check int) "all vertices present" 5_001 (D.Dag.size d);
  (match D.Dag.validate d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate after growth: %s" e);
  Alcotest.(check (float 1e-6)) "serial chain: span = work" (D.Dag.total_work d)
    (D.Dag.span d)

(* -- recorder -------------------------------------------------------------- *)

let record_fib n =
  let module F = Nowa_kernels.Fib.Make (D.Recorder) in
  D.Recorder.record (fun () -> F.run n)

let test_recorder_fib_structure () =
  let dag, result = record_fib 12 in
  Alcotest.(check int) "fib value" 144 result;
  (match D.Dag.validate dag with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e);
  Alcotest.(check int) "one spawn vertex per spawn point"
    (Nowa_kernels.Fib.spawn_count 12)
    (D.Dag.count dag D.Dag.Spawn);
  (* fib spawns once per frame, so sync vertices = spawn vertices. *)
  Alcotest.(check int) "syncs" (D.Dag.count dag D.Dag.Spawn) (D.Dag.count dag D.Dag.Sync);
  Alcotest.(check bool) "work positive" true (D.Dag.total_work dag > 0.0);
  Alcotest.(check bool) "span <= work" true (D.Dag.span dag <= D.Dag.total_work dag);
  Alcotest.(check bool) "parallelism > 1" true (D.Dag.parallelism dag > 1.0)

let test_recorder_multi_phase_scope () =
  (* Two spawn..sync phases in one scope must produce two sync vertices. *)
  let dag, () =
    D.Recorder.record (fun () ->
        D.Recorder.scope (fun sc ->
            ignore (D.Recorder.spawn sc (fun () -> ()));
            D.Recorder.sync sc;
            ignore (D.Recorder.spawn sc (fun () -> ()));
            D.Recorder.sync sc))
  in
  (match D.Dag.validate dag with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e);
  Alcotest.(check int) "two syncs" 2 (D.Dag.count dag D.Dag.Sync);
  Alcotest.(check int) "two spawns" 2 (D.Dag.count dag D.Dag.Spawn)

let test_recorder_no_spawn_no_vertices () =
  let dag, v =
    D.Recorder.record (fun () -> D.Recorder.scope (fun _ -> 21 * 2))
  in
  Alcotest.(check int) "result" 42 v;
  Alcotest.(check int) "single strand" 1 (D.Dag.size dag);
  (match D.Dag.validate dag with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e)

let test_recorder_last_dag_via_runtime_interface () =
  let inst = Nowa_kernels.Registry.find Nowa_kernels.Registry.Test "fib" in
  let thunk = inst.Nowa_kernels.Registry.make_thunk (module D.Recorder) in
  let fp = D.Recorder.run thunk in
  let reference = Nowa_kernels.Registry.reference Nowa_kernels.Registry.Test "fib" in
  Alcotest.(check bool) "fingerprint matches" true
    (Nowa_kernels.Registry.matches inst reference fp);
  match D.Recorder.last_dag () with
  | None -> Alcotest.fail "last_dag missing"
  | Some dag -> (
    match D.Dag.validate dag with
    | Ok () -> ()
    | Error e -> Alcotest.failf "validate: %s" e)

(* -- Intq -------------------------------------------------------------------- *)

let test_intq_basic () =
  let q = D.Intq.create () in
  Alcotest.(check bool) "empty" true (D.Intq.is_empty q);
  Alcotest.(check int) "pop_back empty" (-1) (D.Intq.pop_back q);
  Alcotest.(check int) "pop_front empty" (-1) (D.Intq.pop_front q);
  for i = 1 to 100 do
    D.Intq.push_back q i
  done;
  Alcotest.(check int) "length" 100 (D.Intq.length q);
  Alcotest.(check int) "front" 1 (D.Intq.pop_front q);
  Alcotest.(check int) "back" 100 (D.Intq.pop_back q);
  D.Intq.clear q;
  Alcotest.(check bool) "cleared" true (D.Intq.is_empty q)

let prop_intq_model =
  QCheck.Test.make ~name:"intq matches list model" ~count:300
    QCheck.(list (int_range 0 2))
    (fun ops ->
      let q = D.Intq.create () in
      let model = ref [] in
      let n = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
            incr n;
            D.Intq.push_back q !n;
            model := !model @ [ !n ];
            true
          | 1 -> (
            match (D.Intq.pop_front q, !model) with
            | -1, [] -> true
            | v, x :: rest ->
              model := rest;
              v = x
            | _ -> false)
          | _ -> (
            match (D.Intq.pop_back q, List.rev !model) with
            | -1, [] -> true
            | v, x :: rest ->
              model := List.rev rest;
              v = x
            | _ -> false))
        ops)

(* -- simulator ------------------------------------------------------------------ *)

(* Strand costs are wall-clock readings, so one preempted strand can
   become the span and sink the scaling checks on a loaded host; clamp
   the spikes exactly as the bench harness does. *)
let fib_dag =
  lazy
    (let dag = fst (record_fib 17) in
     ignore (D.Dag.clamp_work dag);
     dag)

let test_sim_completes_and_conserves () =
  let dag = Lazy.force fib_dag in
  let r = D.Wsim.simulate D.Cost_model.nowa ~workers:4 dag in
  Alcotest.(check bool) "not truncated" false r.D.Wsim.truncated;
  Alcotest.(check bool) "finite makespan" true (Float.is_finite r.D.Wsim.makespan_ns);
  Alcotest.(check (float 1e-6)) "t1 matches dag work" (D.Dag.total_work dag) r.D.Wsim.t1_ns

let test_sim_brent_bounds () =
  (* T_P >= max(T1/P, T_inf): overheads only push the makespan up. *)
  let dag = Lazy.force fib_dag in
  List.iter
    (fun p ->
      let r = D.Wsim.simulate D.Cost_model.nowa ~workers:p dag in
      let lower = Float.max (r.D.Wsim.t1_ns /. float_of_int p) r.D.Wsim.span_ns in
      Alcotest.(check bool)
        (Printf.sprintf "lower bound at P=%d" p)
        true
        (r.D.Wsim.makespan_ns >= lower *. 0.999))
    [ 1; 2; 8; 32 ]

let test_sim_single_worker_no_steals () =
  let dag = Lazy.force fib_dag in
  let r = D.Wsim.simulate D.Cost_model.nowa ~workers:1 dag in
  Alcotest.(check int) "no steals" 0 r.D.Wsim.steals;
  Alcotest.(check bool) "speedup <= 1" true (r.D.Wsim.speedup <= 1.0)

let test_sim_determinism () =
  let dag = Lazy.force fib_dag in
  let a = D.Wsim.simulate ~seed:9 D.Cost_model.fibril ~workers:8 dag in
  let b = D.Wsim.simulate ~seed:9 D.Cost_model.fibril ~workers:8 dag in
  Alcotest.(check (float 0.0)) "same seed, same makespan" a.D.Wsim.makespan_ns
    b.D.Wsim.makespan_ns;
  Alcotest.(check int) "same steals" a.D.Wsim.steals b.D.Wsim.steals

let test_sim_scales () =
  let dag = Lazy.force fib_dag in
  let s1 = (D.Wsim.simulate D.Cost_model.nowa ~workers:1 dag).D.Wsim.speedup in
  let s8 = (D.Wsim.simulate D.Cost_model.nowa ~workers:8 dag).D.Wsim.speedup in
  Alcotest.(check bool) "8 workers beat 1" true (s8 > s1 *. 3.0)

let test_sim_runtime_ordering_at_scale () =
  (* The headline result (Figures 1/7/10): at high worker counts the
     wait-free CL configuration beats the lock-based ones, which beat the
     central queue by a wide margin. *)
  let dag = Lazy.force fib_dag in
  let speedup m = (D.Wsim.simulate m ~workers:64 dag).D.Wsim.speedup in
  let nowa = speedup D.Cost_model.nowa in
  let fibril = speedup D.Cost_model.fibril in
  let cilk = speedup D.Cost_model.cilkplus in
  let gomp = speedup D.Cost_model.gomp in
  Alcotest.(check bool) "nowa >= fibril" true (nowa >= fibril *. 0.98);
  Alcotest.(check bool) "nowa > cilkplus" true (nowa > cilk);
  Alcotest.(check bool) "everyone beats gomp" true (Float.min nowa (Float.min fibril cilk) > gomp *. 2.0);
  Alcotest.(check bool) "gomp collapses" true (gomp < 2.0)

let test_sim_tied_slower_than_untied () =
  let dag = Lazy.force fib_dag in
  let tied = (D.Wsim.simulate D.Cost_model.lomp_tied ~workers:32 dag).D.Wsim.speedup in
  let untied =
    (D.Wsim.simulate D.Cost_model.lomp_untied ~workers:32 dag).D.Wsim.speedup
  in
  Alcotest.(check bool) "tied <= untied on fib" true (tied <= untied *. 1.05)

let test_sim_event_cap () =
  let dag = Lazy.force fib_dag in
  let r = D.Wsim.simulate ~max_events:100 D.Cost_model.nowa ~workers:4 dag in
  Alcotest.(check bool) "truncation reported" true r.D.Wsim.truncated

let test_sim_diamond_exact () =
  (* One spawn, no contention, one worker: the makespan is the serial
     work plus the deterministic per-op costs. *)
  let d = diamond ~child_work:100.0 ~cont_work:30.0 in
  let r = D.Wsim.simulate D.Cost_model.nowa ~workers:1 d in
  let m = D.Cost_model.nowa in
  (* root + spawn + child + pop + cont + tail; unstolen sync is free. *)
  let expected =
    10.0 +. m.D.Cost_model.spawn_ns +. 100.0 +. 6.0 +. 30.0 +. 5.0
  in
  Alcotest.(check (float 1e-6)) "exact makespan" expected r.D.Wsim.makespan_ns

let test_clamp_work () =
  (* A serial chain with one enormous outlier: clamping caps it near the
     population's quantile and shrinks the span accordingly. *)
  let d = D.Dag.create () in
  let prev = ref (D.Dag.add_strand d ~work:100.0) in
  D.Dag.set_root d !prev;
  for _ = 1 to 2_000 do
    let v = D.Dag.add_strand d ~work:100.0 in
    D.Dag.add_edge d !prev v;
    prev := v
  done;
  let spike = D.Dag.add_strand d ~work:1_000_000.0 in
  D.Dag.add_edge d !prev spike;
  D.Dag.set_final d spike;
  let before = D.Dag.span d in
  let clamped = D.Dag.clamp_work d in
  Alcotest.(check int) "one strand clamped" 1 clamped;
  Alcotest.(check bool) "span shrank" true (D.Dag.span d < before /. 2.0);
  Alcotest.(check bool) "regular strands untouched" true
    (D.Dag.work d (D.Dag.root d) = 100.0);
  Alcotest.(check int) "idempotent" 0 (D.Dag.clamp_work d)

let test_clamp_work_empty_and_uniform () =
  Alcotest.(check int) "empty DAG" 0 (D.Dag.clamp_work (D.Dag.create ()));
  let d = diamond ~child_work:50.0 ~cont_work:50.0 in
  Alcotest.(check int) "uniform costs unclamped" 0 (D.Dag.clamp_work d)

(* -- scalability (burdened analysis) -------------------------------------- *)

(* In the diamond the burdened critical path is root -> spawn ->(child
   edge, free) child ->(child sync arrival, +b) sync -> tail, so the
   burdened span is span + b; the continuation path picks up the
   spawn-continuation burden instead but stays shorter. *)
let test_burdened_span_diamond () =
  let d = diamond ~child_work:100.0 ~cont_work:30.0 in
  let r0 = D.Scalability.analyze ~burden_ns:0.0 d in
  Alcotest.(check (float 1e-9)) "burden 0 equals Dag.span" (D.Dag.span d)
    r0.D.Scalability.burdened_span_ns;
  Alcotest.(check (float 1e-9)) "burden 0 parallelism" (D.Dag.parallelism d)
    r0.D.Scalability.burdened_parallelism;
  let r = D.Scalability.analyze ~burden_ns:50.0 d in
  Alcotest.(check (float 1e-9)) "burdened span = span + one join burden"
    (115.0 +. 50.0) r.D.Scalability.burdened_span_ns;
  Alcotest.(check (float 1e-9)) "work unchanged" 145.0 r.D.Scalability.work_ns

let test_burdened_span_monotone () =
  let d = diamond ~child_work:100.0 ~cont_work:30.0 in
  let spans =
    List.map
      (fun b -> (D.Scalability.analyze ~burden_ns:b d).D.Scalability.burdened_span_ns)
      [ 0.0; 10.0; 50.0; 200.0; 1000.0 ]
  in
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "non-decreasing in burden" true (a <= b);
      check_sorted rest
    | _ -> ()
  in
  check_sorted spans;
  Alcotest.(check bool) "burden > 0 is >= span" true
    (List.for_all (fun s -> s >= D.Dag.span d) spans)

let test_burdened_span_serial_chain () =
  (* No spawn/sync edges: burden never applies, any burden leaves the
     span untouched. *)
  let d = D.Dag.create () in
  let prev = ref (D.Dag.add_strand d ~work:2.0) in
  D.Dag.set_root d !prev;
  for _ = 1 to 100 do
    let v = D.Dag.add_strand d ~work:2.0 in
    D.Dag.add_edge d !prev v;
    prev := v
  done;
  D.Dag.set_final d !prev;
  let r = D.Scalability.analyze ~burden_ns:500.0 d in
  Alcotest.(check (float 1e-9)) "chain is burden-free" (D.Dag.span d)
    r.D.Scalability.burdened_span_ns

let test_scalability_bounds () =
  let d = diamond ~child_work:100.0 ~cont_work:30.0 in
  let r = D.Scalability.analyze ~burden_ns:50.0 d in
  (* Upper: min(P, T1/Tinf) with the plain span. *)
  Alcotest.(check (float 1e-9)) "upper at P=1" 1.0
    (D.Scalability.bound_upper r ~workers:1);
  Alcotest.(check (float 1e-6)) "upper saturates at parallelism"
    (145.0 /. 115.0)
    (D.Scalability.bound_upper r ~workers:256);
  (* Lower: T1 / (T1/P + burdened span). *)
  Alcotest.(check (float 1e-6)) "lower at P=2"
    (145.0 /. ((145.0 /. 2.0) +. 165.0))
    (D.Scalability.bound_lower r ~workers:2);
  Alcotest.(check bool) "lower <= upper" true
    (D.Scalability.bound_lower r ~workers:8
    <= D.Scalability.bound_upper r ~workers:8)

let test_critical_strands () =
  let d = diamond ~child_work:100.0 ~cont_work:30.0 in
  match D.Scalability.critical_strands ~burden_ns:50.0 ~top:2 d with
  | first :: _ as strands ->
    Alcotest.(check int) "at most top" 2 (List.length strands);
    (* The heaviest strand on the burdened critical path is the child
       (work 100); its share is 100 / 165. *)
    Alcotest.(check (float 1e-9)) "heaviest strand work" 100.0
      first.D.Scalability.work_ns;
    Alcotest.(check (float 1e-6)) "share of burdened span" (100.0 /. 165.0)
      first.D.Scalability.share
  | [] -> Alcotest.fail "critical path must contain strands"

let test_cost_model_registry () =
  Alcotest.(check int) "eight models" 8 (List.length D.Cost_model.all);
  let m = D.Cost_model.find "fibril" in
  Alcotest.(check string) "find" "fibril" m.D.Cost_model.cname;
  Alcotest.(check bool) "fibril uses locks" true (m.D.Cost_model.join_lock_ns > 0.0);
  let n = D.Cost_model.find "nowa" in
  Alcotest.(check (float 0.0)) "nowa is wait-free" 0.0 n.D.Cost_model.join_lock_ns

let () =
  Alcotest.run "nowa_dag"
    [
      ( "dag",
        [
          Alcotest.test_case "diamond analysis" `Quick test_diamond_analysis;
          Alcotest.test_case "validate broken" `Quick test_validate_catches_broken_dags;
          Alcotest.test_case "growth" `Quick test_growth_beyond_initial_capacity;
        ] );
      ( "scalability",
        [
          Alcotest.test_case "burdened diamond" `Quick test_burdened_span_diamond;
          Alcotest.test_case "burden monotone" `Quick test_burdened_span_monotone;
          Alcotest.test_case "serial chain burden-free" `Quick
            test_burdened_span_serial_chain;
          Alcotest.test_case "speedup bounds" `Quick test_scalability_bounds;
          Alcotest.test_case "critical strands" `Quick test_critical_strands;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "fib structure" `Quick test_recorder_fib_structure;
          Alcotest.test_case "multi-phase scope" `Quick test_recorder_multi_phase_scope;
          Alcotest.test_case "no spawns" `Quick test_recorder_no_spawn_no_vertices;
          Alcotest.test_case "runtime interface" `Quick test_recorder_last_dag_via_runtime_interface;
        ] );
      ( "intq",
        [
          Alcotest.test_case "basics" `Quick test_intq_basic;
          QCheck_alcotest.to_alcotest prop_intq_model;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "completes" `Quick test_sim_completes_and_conserves;
          Alcotest.test_case "Brent bounds" `Slow test_sim_brent_bounds;
          Alcotest.test_case "one worker" `Quick test_sim_single_worker_no_steals;
          Alcotest.test_case "deterministic" `Quick test_sim_determinism;
          Alcotest.test_case "scales" `Quick test_sim_scales;
          Alcotest.test_case "runtime ordering" `Slow test_sim_runtime_ordering_at_scale;
          Alcotest.test_case "tied vs untied" `Slow test_sim_tied_slower_than_untied;
          Alcotest.test_case "event cap" `Quick test_sim_event_cap;
          Alcotest.test_case "diamond exact" `Quick test_sim_diamond_exact;
        ] );
      ( "clamping",
        [
          Alcotest.test_case "outlier removal" `Quick test_clamp_work;
          Alcotest.test_case "edge cases" `Quick test_clamp_work_empty_and_uniform;
        ] );
      ( "cost models",
        [ Alcotest.test_case "registry" `Quick test_cost_model_registry ] );
    ]
