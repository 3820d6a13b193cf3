(* Tests for the scheduler engines behind every preset: correctness of
   spawn/sync across worker counts, exception propagation, fully-strict
   semantics, the stack-pool substrate, metrics, the serial elision, and
   the public Nowa façade helpers. *)

let presets : (module Nowa.RUNTIME) list = Nowa.Presets.all
let serial : (module Nowa.RUNTIME) = (module Nowa_runtime.Serial_runtime)

(* The continuation-stealing presets: every [Engine.Make] instantiation. *)
let engine_presets : (module Nowa.RUNTIME) list =
  [
    (module Nowa.Presets.Nowa);
    (module Nowa.Presets.Nowa_the);
    (module Nowa.Presets.Nowa_abp);
    (module Nowa.Presets.Fibril);
    (module Nowa.Presets.Cilk_plus);
  ]

let engine_names = List.map (fun (module R : Nowa.RUNTIME) -> R.name) engine_presets

let rec fib_ref n = if n < 2 then n else fib_ref (n - 1) + fib_ref (n - 2)

let conf workers = Nowa.Config.with_workers workers

(* -- correctness across presets and worker counts --------------------- *)

let test_fib_all_presets () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      List.iter
        (fun w ->
          let rec fib n =
            if n < 2 then n
            else
              R.scope (fun sc ->
                  let a = R.spawn sc (fun () -> fib (n - 1)) in
                  let b = fib (n - 2) in
                  R.sync sc;
                  R.get a + b)
          in
          let r = R.run ~conf:(conf w) (fun () -> fib 18) in
          Alcotest.(check int) (Printf.sprintf "%s w=%d" R.name w) (fib_ref 18) r)
        [ 1; 2; 4 ])
    (serial :: presets)

let test_multiple_syncs_per_scope () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let r =
        R.run ~conf:(conf 3) (fun () ->
            R.scope (fun sc ->
                let a = R.spawn sc (fun () -> 1) in
                R.sync sc;
                let va = R.get a in
                (* Second spawn phase in the same frame. *)
                let b = R.spawn sc (fun () -> va + 10) in
                R.sync sc;
                let vb = R.get b in
                let c = R.spawn sc (fun () -> vb + 100) in
                R.sync sc;
                R.get c))
      in
      Alcotest.(check int) (R.name ^ " phased scope") 111 r)
    (serial :: presets)

let test_deep_sequential_spawns () =
  (* Many spawns in a single frame (stresses deque growth). *)
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let n = 2_000 in
      let r =
        R.run ~conf:(conf 2) (fun () ->
            R.scope (fun sc ->
                let ps = List.init n (fun i -> R.spawn sc (fun () -> i)) in
                R.sync sc;
                List.fold_left (fun acc p -> acc + R.get p) 0 ps))
      in
      Alcotest.(check int) (R.name ^ " wide frame") (n * (n - 1) / 2) r)
    presets

let test_nested_scopes () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let r =
        R.run ~conf:(conf 3) (fun () ->
            R.scope (fun outer ->
                let x =
                  R.spawn outer (fun () ->
                      R.scope (fun inner ->
                          let a = R.spawn inner (fun () -> 3) in
                          let b = 4 in
                          R.sync inner;
                          R.get a * b))
                in
                let y = 5 in
                R.sync outer;
                R.get x + y))
      in
      Alcotest.(check int) (R.name ^ " nested") 17 r)
    presets

let test_scope_implicit_sync () =
  (* No explicit sync: scope exit must join the children. *)
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let cell = ref 0 in
      let () =
        R.run ~conf:(conf 4) (fun () ->
            R.scope (fun sc ->
                for i = 1 to 64 do
                  ignore (R.spawn sc (fun () -> ignore i))
                done;
                ignore (R.spawn sc (fun () -> cell := 42))))
      in
      Alcotest.(check int) (R.name ^ " joined at scope exit") 42 !cell)
    presets

let test_run_return_value_types () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      Alcotest.(check string) (R.name ^ " string result") "hello"
        (R.run ~conf:(conf 2) (fun () -> "hello"));
      Alcotest.(check (list int)) (R.name ^ " list result") [ 1; 2 ]
        (R.run ~conf:(conf 2) (fun () -> [ 1; 2 ])))
    presets

(* Random fork/join computation trees, evaluated on a runtime and
   compared against direct evaluation.  [Node (v, children)] contributes
   [v] plus the spawned children's sums; interleaving of spawns and
   sequential recursion is driven by the child index parity. *)
type tree = Node of int * tree list

let rec tree_gen depth =
  let open QCheck.Gen in
  if depth = 0 then map (fun v -> Node (v, [])) small_int
  else
    map2
      (fun v kids -> Node (v, kids))
      small_int
      (list_size (int_bound 3) (tree_gen (depth - 1)))

let rec eval_direct (Node (v, kids)) =
  List.fold_left (fun acc k -> acc + eval_direct k) v kids

let eval_on (module R : Nowa.RUNTIME) tree =
  let rec go (Node (v, kids)) =
    if kids = [] then v
    else
      R.scope (fun sc ->
          let promises =
            List.mapi
              (fun i k ->
                if i mod 2 = 0 then Either.Left (R.spawn sc (fun () -> go k))
                else Either.Right (go k))
              kids
          in
          R.sync sc;
          List.fold_left
            (fun acc p ->
              acc + match p with Either.Left p -> R.get p | Either.Right v -> v)
            v promises)
  in
  R.run ~conf:(conf 3) (fun () -> go tree)

let prop_random_trees (module R : Nowa.RUNTIME) =
  QCheck.Test.make
    ~name:(Printf.sprintf "random fork/join trees on %s" R.name)
    ~count:30
    (QCheck.make (tree_gen 4))
    (fun tree -> eval_on (module R) tree = eval_direct tree)

(* -- exceptions -------------------------------------------------------- *)

exception Boom of int

let test_exception_from_main () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      Alcotest.check_raises (R.name ^ " main exn") (Boom 1) (fun () ->
          R.run ~conf:(conf 2) (fun () -> raise (Boom 1))))
    (serial :: presets)

(* Each exception test runs its scope in two shapes.  "flat": the raising
   spawn is the scope's first, so it finds an empty deque and takes the
   exposed (effect) path.  "nested": the same scope runs inside an
   exposed child, so its spawns find the child's continuation in the
   deque and the continuation-stealing engines run them inline (always
   on 1 worker; on 2 unless a thief took the continuation first). *)
let raising_shapes = [ ("flat", false, 2); ("nested", true, 1); ("nested", true, 2) ]

module Shape (R : Nowa.RUNTIME) = struct
  let scope ~nested k =
    if not nested then R.scope k
    else
      R.scope (fun outer ->
          let p = R.spawn outer (fun () -> R.scope k) in
          R.sync outer;
          R.get p)
end

let test_exception_from_child () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let module S = Shape (R) in
      List.iter
        (fun (shape, nested, w) ->
          let result =
            try
              R.run ~conf:(conf w) (fun () ->
                  S.scope ~nested (fun sc ->
                      let _p = R.spawn sc (fun () -> raise (Boom 2)) in
                      R.sync sc;
                      0))
            with Boom 2 -> 99
          in
          let label = Printf.sprintf "%s %s w=%d" R.name shape w in
          Alcotest.(check int) (label ^ ": child exn surfaces at sync") 99 result;
          if nested && w = 1 && List.mem R.name engine_names then
            match R.last_metrics () with
            | None -> Alcotest.fail "metrics missing"
            | Some m ->
              Alcotest.(check int) (label ^ ": raising spawn ran inline") 1
                (Nowa.Metrics.total m (fun w -> w.Nowa.Metrics.inlined)))
        raising_shapes)
    presets

let test_exception_via_get () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let module S = Shape (R) in
      List.iter
        (fun (shape, nested, w) ->
          let result =
            try
              R.run ~conf:(conf w) (fun () ->
                  S.scope ~nested (fun sc ->
                      let p =
                        R.spawn sc (fun () -> if true then raise (Boom 3) else 0)
                      in
                      (try R.sync sc with Boom 3 -> ());
                      R.get p))
            with Boom 3 -> 77
          in
          Alcotest.(check int)
            (Printf.sprintf "%s %s w=%d: get re-raises" R.name shape w)
            77 result)
        raising_shapes)
    presets

let test_sibling_survives_child_exception () =
  (* Fully strict: other children still complete and are joined. *)
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let module S = Shape (R) in
      List.iter
        (fun (shape, nested, w) ->
          let done_flag = ref false in
          let result =
            try
              R.run ~conf:(conf w) (fun () ->
                  S.scope ~nested (fun sc ->
                      ignore (R.spawn sc (fun () -> raise (Boom 4)));
                      ignore (R.spawn sc (fun () -> done_flag := true));
                      R.sync sc;
                      0))
            with Boom 4 -> 1
          in
          let label = Printf.sprintf "%s %s w=%d" R.name shape w in
          Alcotest.(check int) (label ^ " exn propagated") 1 result;
          Alcotest.(check bool) (label ^ " sibling ran") true !done_flag)
        raising_shapes)
    presets

let test_pending_get_rejected () =
  (* With a single worker, a child-stealing task can't have run before
     the parent reads the promise: the read must be rejected. *)
  let module R = Nowa.Presets.Tbb in
  let saw_invalid =
    try
      R.run ~conf:(conf 1) (fun () ->
          R.scope (fun sc ->
              let p = R.spawn sc (fun () -> 1) in
              ignore (R.get p);
              false))
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "pending get raises" true saw_invalid

(* Deterministically exercise the steal → implicit-sync → suspend →
   resume path: the child blocks until the continuation (which can only
   run in parallel if a thief stole it) sets a flag.  The sync then
   suspends until the child joins and resumes it. *)
let test_forced_steal_roundtrip () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let result =
        R.run ~conf:(conf 2) (fun () ->
            R.scope (fun sc ->
                let continuation_ran = Atomic.make false in
                let child =
                  R.spawn sc (fun () ->
                      let deadline = Unix.gettimeofday () +. 20.0 in
                      while
                        (not (Atomic.get continuation_ran))
                        && Unix.gettimeofday () < deadline
                      do
                        Unix.sleepf 1e-4
                      done;
                      Atomic.get continuation_ran)
                in
                (* This code is the continuation after the spawn: it can
                   only execute while the child runs if it was stolen. *)
                Atomic.set continuation_ran true;
                R.sync sc;
                R.get child))
      in
      Alcotest.(check bool)
        (R.name ^ " continuation stolen and ran in parallel")
        true result;
      match R.last_metrics () with
      | Some m ->
        Alcotest.(check bool) (R.name ^ " recorded a steal") true
          (Nowa.Metrics.total m (fun w -> w.Nowa.Metrics.steals) >= 1)
      | None -> ())
    [
      (module Nowa.Presets.Nowa : Nowa.RUNTIME);
      (module Nowa.Presets.Nowa_the);
      (module Nowa.Presets.Fibril);
      (module Nowa.Presets.Cilk_plus);
    ]

(* A frame remembers the worker that opened it, and that memory must not
   outlive a move of its strand.  Outer scope [O] opens [I]; [I]'s one
   spawn exposes, and the child waits until the continuation runs on the
   other worker.  The continuation waits for the child to finish, so [I]'s
   sync fuses on the thief and [O] goes on there, away from the worker
   that opened it.  Each spawn point is noted on the worker the strand
   stands on just before the call; the runtime must count every spawn on
   that same worker.  With [raise_at], [O] raises after the move instead
   of finishing its loop, and the exception must surface from [run].  A
   run in which [I]'s sync happened to suspend, so [O] stayed home, is
   retried. *)
exception Migrated_raise

let test_stamp_follows_migration () =
  let wait_for flag =
    let deadline = Unix.gettimeofday () +. 20.0 in
    while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 1e-4
    done
  in
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let attempt ~raise_at =
        let noted = Array.make 2 0 in
        let note () =
          let w = Nowa_trace.Current.worker () in
          noted.(w) <- noted.(w) + 1
        in
        let moved = ref false in
        let body () =
          R.scope (fun o ->
              let home = Nowa_trace.Current.worker () in
              R.scope (fun i ->
                  let cont_ran = Atomic.make false in
                  let child_done = Atomic.make false in
                  note ();
                  R.spawn_unit i (fun () ->
                      wait_for cont_ran;
                      Atomic.set child_done true);
                  Atomic.set cont_ran true;
                  wait_for child_done;
                  (* Let the child's join land before the sync. *)
                  Unix.sleepf 0.01;
                  R.sync i);
              moved := Nowa_trace.Current.worker () <> home;
              for k = 1 to 1_000 do
                if raise_at = Some k then raise Migrated_raise;
                note ();
                R.spawn_unit o ignore
              done)
        in
        let raised =
          match R.run ~conf:(conf 2) body with
          | () -> false
          | exception Migrated_raise -> true
        in
        (match R.last_metrics () with
        | None -> Alcotest.fail "metrics missing"
        | Some m ->
          Array.iter
            (fun (w : Nowa.Metrics.worker) ->
              Alcotest.(check int)
                (Printf.sprintf "%s worker %d spawns" R.name w.id)
                noted.(w.id) w.spawns)
            m.Nowa.Metrics.workers);
        (!moved, raised)
      in
      List.iter
        (fun raise_at ->
          let rec go tries =
            let moved, raised = attempt ~raise_at in
            Alcotest.(check bool)
              (R.name ^ " exception surfaced iff raised")
              (Option.is_some raise_at) raised;
            if (not moved) && tries > 1 then go (tries - 1)
            else
              Alcotest.(check bool) (R.name ^ " outer scope migrated") true moved
          in
          go 5)
        [ None; Some 500 ])
    engine_presets

(* -- guard ------------------------------------------------------------- *)

let test_no_nested_runs () =
  let module R = Nowa.Presets.Nowa in
  let saw_failure =
    try
      R.run ~conf:(conf 1) (fun () -> R.run ~conf:(conf 1) (fun () -> ()) |> fun () -> false)
    with Failure _ -> true
  in
  Alcotest.(check bool) "nested run rejected" true saw_failure;
  (* The guard must have been released: a fresh run works. *)
  Alcotest.(check int) "guard released" 5 (R.run ~conf:(conf 1) (fun () -> 5))

let test_api_outside_run () =
  let module R = Nowa.Presets.Nowa in
  let saw =
    try
      ignore (R.scope (fun _ -> 0));
      false
    with Failure _ -> true
  in
  Alcotest.(check bool) "scope outside run rejected" true saw

(* -- metrics ------------------------------------------------------------ *)

let test_metrics_spawn_counts () =
  let module R = Nowa.Presets.Nowa in
  let n = 16 in
  let rec fib sc_n =
    if sc_n < 2 then sc_n
    else
      R.scope (fun sc ->
          let a = R.spawn sc (fun () -> fib (sc_n - 1)) in
          let b = fib (sc_n - 2) in
          R.sync sc;
          R.get a + b)
  in
  ignore (R.run ~conf:(conf 1) (fun () -> fib n));
  match R.last_metrics () with
  | None -> Alcotest.fail "metrics missing"
  | Some m ->
    Alcotest.(check int) "spawns counted exactly"
      (Nowa_kernels.Fib.spawn_count n)
      (Nowa.Metrics.total m (fun w -> w.Nowa.Metrics.spawns));
    Alcotest.(check int) "no steals on one worker" 0
      (Nowa.Metrics.total m (fun w -> w.Nowa.Metrics.steals));
    Alcotest.(check bool) "elapsed recorded" true (m.Nowa.Metrics.elapsed_s >= 0.0)

let test_metrics_steals_with_workers () =
  let module R = Nowa.Presets.Nowa in
  let rec fib sc_n =
    if sc_n < 2 then sc_n
    else
      R.scope (fun sc ->
          let a = R.spawn sc (fun () -> fib (sc_n - 1)) in
          let b = fib (sc_n - 2) in
          R.sync sc;
          R.get a + b)
  in
  ignore (R.run ~conf:(conf 4) (fun () -> fib 22));
  match R.last_metrics () with
  | None -> Alcotest.fail "metrics missing"
  | Some m ->
    (* Lost continuations correspond one-to-one to committed steals. *)
    Alcotest.(check int) "steals = lost continuations"
      (Nowa.Metrics.total m (fun w -> w.Nowa.Metrics.steals))
      (Nowa.Metrics.total m (fun w -> w.Nowa.Metrics.lost_continuations))

(* -- fusion audit (ISSUE 9) ---------------------------------------------- *)

(* The paper's no-steal invariant: on a single worker nothing is ever
   stolen, so the steal-free path must never take the lost-continuation
   branch, never publish a sync continuation (no suspension), and never
   touch the resume exchange.  The trace-derived counters prove it for
   every continuation-stealing instantiation — both counter families and
   all four deques. *)
let test_no_steal_invariant_single_worker () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let rec fib n =
        if n < 2 then n
        else
          R.scope (fun sc ->
              let a = R.spawn sc (fun () -> fib (n - 1)) in
              let b = fib (n - 2) in
              R.sync sc;
              R.get a + b)
      in
      let r = R.run ~conf:(conf 1) (fun () -> fib 18) in
      Alcotest.(check int) (R.name ^ " result") (fib_ref 18) r;
      match R.last_metrics () with
      | None -> Alcotest.fail "metrics missing"
      | Some m ->
        let total f = Nowa.Metrics.total m f in
        Alcotest.(check int)
          (R.name ^ " no lost continuations")
          0
          (total (fun w -> w.Nowa.Metrics.lost_continuations));
        Alcotest.(check int)
          (R.name ^ " no suspensions")
          0
          (total (fun w -> w.Nowa.Metrics.suspensions));
        Alcotest.(check int)
          (R.name ^ " no resumes")
          0
          (total (fun w -> w.Nowa.Metrics.resumes));
        Alcotest.(check int)
          (R.name ^ " no steals")
          0
          (total (fun w -> w.Nowa.Metrics.steals));
        (* Never-forked frames take the cheap fast-sync branch; the fused
           post-steal branch cannot trigger without a steal. *)
        Alcotest.(check int)
          (R.name ^ " no fused syncs without steals")
          0
          (total (fun w -> w.Nowa.Metrics.fused_syncs));
        Alcotest.(check bool)
          (R.name ^ " fast syncs taken")
          true
          (total (fun w -> w.Nowa.Metrics.fast_syncs) > 0))
    engine_presets;
  (* The child-stealing and central engines never lose continuations by
     construction (they do not steal continuations at all); their sync
     legitimately helps/suspends, so only the lost-continuation half of
     the invariant applies to those families. *)
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let rec fib n =
        if n < 2 then n
        else
          R.scope (fun sc ->
              let a = R.spawn sc (fun () -> fib (n - 1)) in
              let b = fib (n - 2) in
              R.sync sc;
              R.get a + b)
      in
      ignore (R.run ~conf:(conf 1) (fun () -> fib 14));
      match R.last_metrics () with
      | None -> Alcotest.fail "metrics missing"
      | Some m ->
        Alcotest.(check int)
          (R.name ^ " no lost continuations")
          0
          (Nowa.Metrics.total m (fun w -> w.Nowa.Metrics.lost_continuations)))
    [
      (module Nowa.Presets.Tbb : Nowa.RUNTIME);
      (module Nowa.Presets.Lomp_untied);
      (module Nowa.Presets.Lomp_tied);
      (module Nowa.Presets.Gomp);
    ]

(* Lazy exposure on one worker: nothing is ever stolen, so the deque
   empties only when the spine's exposed continuation is popped back.
   fib exposes one spawn per level along the fib(n-2) spine (about n/2)
   and runs every other spawn inline; an eager regression would expose
   all 6,765 spawns of fib 20, a broken rule none. *)
let test_lazy_exposure_single_worker () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let rec fib n =
        if n < 2 then n
        else
          R.scope (fun sc ->
              let a = R.spawn sc (fun () -> fib (n - 1)) in
              let b = fib (n - 2) in
              R.sync sc;
              R.get a + b)
      in
      Alcotest.(check int) (R.name ^ " result") (fib_ref 20)
        (R.run ~conf:(conf 1) (fun () -> fib 20));
      match R.last_metrics () with
      | None -> Alcotest.fail "metrics missing"
      | Some m ->
        let total f = Nowa.Metrics.total m f in
        let spawns = total (fun w -> w.Nowa.Metrics.spawns) in
        let exposed = spawns - total (fun w -> w.Nowa.Metrics.inlined) in
        Alcotest.(check int) (R.name ^ " every spawn point counted")
          (Nowa_kernels.Fib.spawn_count 20) spawns;
        if exposed < 1 || exposed > 20 then
          Alcotest.failf "%s: %d exposed spawns, expected 1..20" R.name exposed)
    engine_presets

(* Explicit-sync conservation: every explicit sync resolves through
   exactly one of the three branches — never-forked fast, forked-but-
   joined fused, or published-then-resumed.  The fib shape calls sync
   twice per scope (once in the kernel, once at scope exit), so the
   totals must tie out exactly, on any schedule and worker count. *)
let test_fused_sync_conservation () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      List.iter
        (fun workers ->
          let rec fib n =
            if n < 2 then n
            else
              R.scope (fun sc ->
                  let a = R.spawn sc (fun () -> fib (n - 1)) in
                  let b = fib (n - 2) in
                  R.sync sc;
                  R.get a + b)
          in
          ignore (R.run ~conf:(conf workers) (fun () -> fib 20));
          match R.last_metrics () with
          | None -> Alcotest.fail "metrics missing"
          | Some m ->
            let total f = Nowa.Metrics.total m f in
            let spawns = total (fun w -> w.Nowa.Metrics.spawns) in
            let fast = total (fun w -> w.Nowa.Metrics.fast_syncs) in
            let fused = total (fun w -> w.Nowa.Metrics.fused_syncs) in
            let resumes = total (fun w -> w.Nowa.Metrics.resumes) in
            Alcotest.(check int)
              (Printf.sprintf "%s w=%d: fast+fused+resumes = 2*spawns"
                 R.name workers)
              (2 * spawns)
              (fast + fused + resumes))
        [ 1; 2; 4 ])
    engine_presets

(* A steal forces the frame's explicit sync onto one of the forked
   branches: after the forced-steal roundtrip the run must show at least
   one fused or resumed sync. *)
let test_forced_steal_syncs_accounted () =
  let module R = Nowa.Presets.Nowa in
  let result =
    R.run ~conf:(conf 2) (fun () ->
        R.scope (fun sc ->
            let continuation_ran = Atomic.make false in
            let child =
              R.spawn sc (fun () ->
                  let deadline = Unix.gettimeofday () +. 20.0 in
                  while
                    (not (Atomic.get continuation_ran))
                    && Unix.gettimeofday () < deadline
                  do
                    Unix.sleepf 1e-4
                  done;
                  Atomic.get continuation_ran)
            in
            Atomic.set continuation_ran true;
            R.sync sc;
            R.get child))
  in
  Alcotest.(check bool) "steal forced" true result;
  match R.last_metrics () with
  | None -> Alcotest.fail "metrics missing"
  | Some m ->
    let total f = Nowa.Metrics.total m f in
    Alcotest.(check bool) "forked sync took fused or resume branch" true
      (total (fun w -> w.Nowa.Metrics.fused_syncs)
       + total (fun w -> w.Nowa.Metrics.resumes)
       >= 1)

(* -- re-exposure deadline ------------------------------------------------ *)

(* A flat loop keeps its deque empty at every spawn, so lazy exposure
   alone would expose all 20,000 spawns.  The frame's first spawn
   exposes; after that the worker re-exposes once its deadline passes
   (at once, the first time) and then at most once per period. *)
let test_reexposure_bounded () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let n = 20_000 in
      let t0 = Nowa_util.Clock.now_ns () in
      R.run ~conf:(conf 1) (fun () ->
          R.scope (fun sc ->
              for _ = 1 to n do
                R.spawn_unit sc ignore
              done));
      let elapsed = Nowa_util.Clock.now_ns () - t0 in
      match R.last_metrics () with
      | None -> Alcotest.fail "metrics missing"
      | Some m ->
        let total f = Nowa.Metrics.total m f in
        let spawns = total (fun w -> w.Nowa.Metrics.spawns) in
        let exposed = spawns - total (fun w -> w.Nowa.Metrics.inlined) in
        let bound = 2 + (elapsed / Nowa_runtime.Engine.reexpose_period_ns) in
        Alcotest.(check int) (R.name ^ " every spawn point counted") n spawns;
        if exposed < 1 || exposed > bound then
          Alcotest.failf "%s: %d exposed spawns in %d us, expected 1..%d" R.name
            exposed (elapsed / 1_000) bound)
    engine_presets

(* Children far longer than the period: every spawn finds its worker's
   deadline past, so each re-exposes and the loop's continuation keeps
   moving to whichever worker is free.  A frame that never re-exposed
   would run seven of the eight children on the worker that stole the
   loop first.  A run in which the host starved one domain is retried. *)
let test_reexposure_spreads_long_children () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let attempt () =
        let ran = Array.init 2 (fun _ -> Atomic.make 0) in
        R.run ~conf:(conf 2) (fun () ->
            R.scope (fun sc ->
                for _ = 1 to 8 do
                  R.spawn_unit sc (fun () ->
                      Atomic.incr ran.(Nowa_trace.Current.worker ());
                      Nowa_util.Clock.spin_ns 3_000_000)
                done));
        Array.map Atomic.get ran
      in
      let rec go tries =
        let ran = attempt () in
        let spread = ran.(0) >= 2 && ran.(1) >= 2 in
        if (not spread) && tries > 1 then go (tries - 1)
        else if not spread then
          Alcotest.failf "%s: children per worker %d/%d, expected >= 2 each"
            R.name ran.(0) ran.(1)
      in
      go 5)
    engine_presets

(* The deadline gates only frames that have exposed before.  Right after
   a flat loop, the worker's deadline lies ahead (its last spawn either
   re-exposed and moved it, or found it ahead), yet a fresh scope's one
   spawn must still expose: its child waits, for at most 2 s, for the
   continuation to run on the other worker. *)
let test_first_exposure_exempt () =
  let wait_for flag =
    let deadline = Nowa_util.Clock.now_ns () + 2_000_000_000 in
    while (not (Atomic.get flag)) && Nowa_util.Clock.now_ns () < deadline do
      Domain.cpu_relax ()
    done;
    Atomic.get flag
  in
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      for round = 1 to 3 do
        let parallel =
          R.run ~conf:(conf 2) (fun () ->
              R.scope (fun loop ->
                  for _ = 1 to 20_000 do
                    R.spawn_unit loop ignore
                  done;
                  R.scope (fun single ->
                      let cont_ran = Atomic.make false in
                      let seen = Atomic.make false in
                      R.spawn_unit single (fun () ->
                          Atomic.set seen (wait_for cont_ran));
                      Atomic.set cont_ran true;
                      R.sync single;
                      Atomic.get seen)))
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s round %d: fresh scope's spawn exposed" R.name round)
          true parallel;
        match R.last_metrics () with
        | None -> Alcotest.fail "metrics missing"
        | Some m ->
          let total f = Nowa.Metrics.total m f in
          let exposed =
            total (fun w -> w.Nowa.Metrics.spawns)
            - total (fun w -> w.Nowa.Metrics.inlined)
          in
          if exposed < 3 then
            Alcotest.failf "%s: %d exposed spawns, the loop never re-exposed"
              R.name exposed
      done)
    engine_presets

(* A paced flat loop on one worker: a spawn every 50 us, each past the
   base period, so a fixed period would re-expose all 400.  Nobody
   steals, so every re-exposure comes back untaken and the worker's
   period doubles up to the cap: the first exposure, the re-exposure at
   each period on the way up, then at most one per cap.

   The cap also bounds exposures from below, however the host delays
   the loop: the second spawn re-exposes at once, and once a re-exposing
   spawn has returned, the first spawn that starts a cap or more later
   finds the deadline passed, since the period never exceeds the cap.
   Replaying that rule on each spawn's start and return times gives the
   fewest exposures a capped back-off can make. *)
let test_reexposure_backs_off () =
  let module E = Nowa_runtime.Engine in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let n = 400 in
      let start = Array.make n 0 and return = Array.make n 0 in
      let t0 = Nowa_util.Clock.now_ns () in
      R.run ~conf:(conf 1) (fun () ->
          R.scope (fun sc ->
              for i = 0 to n - 1 do
                Nowa_util.Clock.spin_ns 50_000;
                start.(i) <- Nowa_util.Clock.now_ns ();
                R.spawn_unit sc ignore;
                return.(i) <- Nowa_util.Clock.now_ns ()
              done));
      let elapsed = Nowa_util.Clock.now_ns () - t0 in
      let least =
        let count = ref 2 and due = ref (return.(1) + E.reexpose_cap_ns) in
        for i = 2 to n - 1 do
          if start.(i) >= !due then begin
            incr count;
            due := return.(i) + E.reexpose_cap_ns
          end
        done;
        !count
      in
      match R.last_metrics () with
      | None -> Alcotest.fail "metrics missing"
      | Some m ->
        let total f = Nowa.Metrics.total m f in
        let spawns = total (fun w -> w.Nowa.Metrics.spawns) in
        let exposed = spawns - total (fun w -> w.Nowa.Metrics.inlined) in
        let bound =
          2
          + log2 (E.reexpose_cap_ns / E.reexpose_period_ns)
          + (elapsed / E.reexpose_cap_ns)
        in
        Alcotest.(check int) (R.name ^ " every spawn point counted") n spawns;
        if exposed < least || exposed > bound then
          Alcotest.failf "%s: %d exposed spawns in %d us, expected %d..%d" R.name
            exposed (elapsed / 1_000) least bound)
    engine_presets

(* The back-off keeps its liveness bound: after the paced loop above
   has taken the period to the cap and let the helper park, the same
   frame spawns children far longer than the cap.  The spawner still
   re-exposes once per cap, each exposure wakes the sleeper, and a
   thief resets its period, so the children spread as in "spreads long
   children".  A run in which the host starved one domain is retried. *)
let test_reexposure_backoff_wakes_parked () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let attempt () =
        let ran = Array.init 2 (fun _ -> Atomic.make 0) in
        R.run
          ~conf:{ (conf 2) with Nowa.Config.idle_policy = Nowa.Config.Park_after 8 }
          (fun () ->
            R.scope (fun sc ->
                for _ = 1 to 400 do
                  Nowa_util.Clock.spin_ns 50_000;
                  R.spawn_unit sc ignore
                done;
                for _ = 1 to 8 do
                  R.spawn_unit sc (fun () ->
                      Atomic.incr ran.(Nowa_trace.Current.worker ());
                      Nowa_util.Clock.spin_ns 3_000_000)
                done));
        Array.map Atomic.get ran
      in
      let rec go tries =
        let ran = attempt () in
        let spread = ran.(0) >= 2 && ran.(1) >= 2 in
        if (not spread) && tries > 1 then go (tries - 1)
        else if not spread then
          Alcotest.failf "%s: children per worker %d/%d, expected >= 2 each"
            R.name ran.(0) ran.(1)
      in
      go 5)
    engine_presets

(* A loop is re-exposed only for an idle pool-mate: a failed steal
   raises the victim's flag once its deadline has passed.  Two
   workers under [Spin] each run a flat loop of 1 us children until a
   shared stop time 20 ms ahead: the root's scope spawns one child that
   runs the loop, and the root runs it too.  Both loops stop together,
   so neither worker sits idle before the end, and past each frame's
   first exposure and the re-exposure its worker's creation or its
   steal grants, every spawn runs inline.  Exposures that were stolen
   moved work and are not counted; a worker re-exposing once per period
   would count about 20 each. *)
let test_reexposure_busy_mates () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let loop stop =
        R.scope (fun sc ->
            while Nowa_util.Clock.now_ns () < stop do
              R.spawn_unit sc (fun () -> Nowa_util.Clock.spin_ns 1_000)
            done)
      in
      R.run
        ~conf:{ (conf 2) with Nowa.Config.idle_policy = Nowa.Config.Spin }
        (fun () ->
          let stop = Nowa_util.Clock.now_ns () + 20_000_000 in
          R.scope (fun sc ->
              R.spawn_unit sc (fun () -> loop stop);
              loop stop));
      match R.last_metrics () with
      | None -> Alcotest.fail "metrics missing"
      | Some m ->
        let total f = Nowa.Metrics.total m f in
        let exposed =
          total (fun w -> w.Nowa.Metrics.spawns)
          - total (fun w -> w.Nowa.Metrics.inlined)
        in
        let lost = total (fun w -> w.Nowa.Metrics.lost_continuations) in
        if exposed - lost > 8 then
          Alcotest.failf "%s: %d exposed spawns, %d stolen: %d untaken, expected <= 8"
            R.name exposed lost (exposed - lost))
    engine_presets

(* -- idle policies -------------------------------------------------------- *)

(* Every engine, every idle policy: same fib answer.  The park policy's
   threshold is aggressive so workers really do park mid-run. *)
let test_idle_policies_all_presets () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      List.iter
        (fun (pname, policy) ->
          let conf = { (conf 4) with Nowa.Config.idle_policy = policy } in
          let rec fib n =
            if n < 2 then n
            else
              R.scope (fun sc ->
                  let a = R.spawn sc (fun () -> fib (n - 1)) in
                  let b = fib (n - 2) in
                  R.sync sc;
                  R.get a + b)
          in
          let r = R.run ~conf (fun () -> fib 16) in
          Alcotest.(check int)
            (Printf.sprintf "%s under %s" R.name pname)
            (fib_ref 16) r)
        [
          ("spin", Nowa.Config.Spin);
          ("yield", Nowa.Config.Yield_after 2);
          ("park", Nowa.Config.Park_after 2);
        ])
    presets

(* Shutdown regression: a run whose workers are all parked when the root
   finishes must still terminate (wake_all on the finished flag), and
   repeatedly so.  A lost shutdown wake-up hangs this test. *)
let test_shutdown_wakes_parked_workers () =
  let module R = Nowa.Presets.Nowa in
  let conf =
    { (conf 4) with Nowa.Config.idle_policy = Nowa.Config.Park_after 1 }
  in
  (* Serial body: the three non-root workers find nothing, park, and
     stay parked until teardown.  Every round proves shutdown is
     hang-free; on a loaded host a short round can finish before the
     other domains get CPU at all, so keep going until parking was
     actually observed (bounded — 50 rounds is far past any scheduler
     stall seen in practice). *)
  let parks () =
    match R.last_metrics () with
    | None -> Alcotest.fail "metrics missing"
    | Some m -> Nowa.Metrics.total m (fun w -> w.Nowa.Metrics.parks)
  in
  let rec go round =
    let r =
      R.run ~conf (fun () ->
          Nowa_util.Clock.spin_ns 2_000_000;
          round)
    in
    Alcotest.(check int) "run returned" round r;
    if parks () = 0 && round < 50 then go (round + 1)
  in
  go 1;
  Alcotest.(check bool) "workers actually parked" true (parks () > 0)

(* Parking accounting: a serial-heavy run under the park policy records
   parks and parked time; the same run under spin records none. *)
let test_park_metrics () =
  let module R = Nowa.Presets.Nowa in
  let run policy =
    let conf = { (conf 4) with Nowa.Config.idle_policy = policy } in
    ignore (R.run ~conf (fun () -> Nowa_util.Clock.spin_ns 5_000_000));
    match R.last_metrics () with
    | None -> Alcotest.fail "metrics missing"
    | Some m ->
      ( Nowa.Metrics.total m (fun w -> w.Nowa.Metrics.parks),
        Nowa.Metrics.total m (fun w -> w.Nowa.Metrics.parked_ns) )
  in
  (* On a loaded host a round can finish before the idle workers get any
     CPU; retry until parking was observed (same bound as the shutdown
     test above). *)
  let rec run_park tries =
    let parks, parked_ns = run (Nowa.Config.Park_after 2) in
    if parks = 0 && tries > 1 then run_park (tries - 1) else (parks, parked_ns)
  in
  let parks, parked_ns = run_park 50 in
  Alcotest.(check bool) "parked at least once" true (parks > 0);
  Alcotest.(check bool) "parked time recorded" true (parked_ns > 0);
  let parks, parked_ns = run Nowa.Config.Spin in
  Alcotest.(check int) "spin never parks" 0 parks;
  Alcotest.(check int) "spin never blocks" 0 parked_ns

(* -- stack pool ---------------------------------------------------------- *)

let test_stack_pool_reuse () =
  let conf = Nowa.Config.with_workers 2 in
  let pool = Nowa_runtime.Stack_pool.create conf in
  let s1 = Nowa_runtime.Stack_pool.acquire pool ~worker:0 in
  Nowa_runtime.Stack_pool.release pool ~worker:0 s1;
  let s2 = Nowa_runtime.Stack_pool.acquire pool ~worker:0 in
  Alcotest.(check int) "cached stack reused" s1.Nowa_runtime.Stack_pool.stack_id
    s2.Nowa_runtime.Stack_pool.stack_id;
  Alcotest.(check int) "one live stack" 1 (Nowa_runtime.Stack_pool.live_stacks pool)

let test_stack_pool_rss_watermark () =
  let conf = Nowa.Config.with_workers 1 in
  let pool = Nowa_runtime.Stack_pool.create conf in
  let s = Nowa_runtime.Stack_pool.acquire pool ~worker:0 in
  Nowa_runtime.Stack_pool.touch s ~pages:9;
  Nowa_runtime.Stack_pool.sync_rss pool s;
  Alcotest.(check int) "rss counts touched pages" 10
    (Nowa_runtime.Stack_pool.current_rss_pages pool);
  Alcotest.(check int) "watermark follows" 10
    (Nowa_runtime.Stack_pool.max_rss_pages pool);
  Alcotest.(check int) "touch clamps at stack size" 256
    (let s2 = Nowa_runtime.Stack_pool.acquire pool ~worker:0 in
     Nowa_runtime.Stack_pool.touch s2 ~pages:500;
     s2.Nowa_runtime.Stack_pool.resident)

let test_stack_pool_madvise () =
  let conf =
    { (Nowa.Config.with_workers 1) with Nowa.Config.madvise = true; madvise_cost_ns = 0 }
  in
  let pool = Nowa_runtime.Stack_pool.create conf in
  let s = Nowa_runtime.Stack_pool.acquire pool ~worker:0 in
  Nowa_runtime.Stack_pool.touch s ~pages:31;
  Nowa_runtime.Stack_pool.suspend pool s;
  Alcotest.(check int) "pages returned on suspension" 1
    s.Nowa_runtime.Stack_pool.resident;
  Alcotest.(check int) "one madvise call" 1 (Nowa_runtime.Stack_pool.madvise_calls pool);
  Alcotest.(check int) "rss dropped back" 1
    (Nowa_runtime.Stack_pool.current_rss_pages pool);
  Alcotest.(check int) "watermark keeps the peak" 32
    (Nowa_runtime.Stack_pool.max_rss_pages pool)

let test_stack_pool_madvise_dontneed_refaults () =
  let conf =
    {
      (Nowa.Config.with_workers 1) with
      Nowa.Config.madvise = true;
      madvise_cost_ns = 0;
      madvise_mode = Nowa.Config.Madv_dontneed;
      refault_ns = 0;
    }
  in
  let pool = Nowa_runtime.Stack_pool.create conf in
  let s = Nowa_runtime.Stack_pool.acquire pool ~worker:0 in
  Nowa_runtime.Stack_pool.touch s ~pages:10;
  Nowa_runtime.Stack_pool.release pool ~worker:0 s;
  Alcotest.(check bool) "stack marked shrunk" true s.Nowa_runtime.Stack_pool.shrunk;
  let s' = Nowa_runtime.Stack_pool.acquire pool ~worker:0 in
  Alcotest.(check int) "same stack" s.Nowa_runtime.Stack_pool.stack_id
    s'.Nowa_runtime.Stack_pool.stack_id;
  Alcotest.(check int) "refault recorded" 1
    (Nowa_runtime.Stack_pool.refault_count pool);
  Alcotest.(check bool) "shrunk cleared" false s'.Nowa_runtime.Stack_pool.shrunk

let test_stack_pool_madv_free_no_refault () =
  let conf =
    {
      (Nowa.Config.with_workers 1) with
      Nowa.Config.madvise = true;
      madvise_cost_ns = 0;
      madvise_mode = Nowa.Config.Madv_free;
    }
  in
  let pool = Nowa_runtime.Stack_pool.create conf in
  let s = Nowa_runtime.Stack_pool.acquire pool ~worker:0 in
  Nowa_runtime.Stack_pool.touch s ~pages:10;
  Nowa_runtime.Stack_pool.release pool ~worker:0 s;
  ignore (Nowa_runtime.Stack_pool.acquire pool ~worker:0);
  Alcotest.(check int) "lazy freeing never refaults" 0
    (Nowa_runtime.Stack_pool.refault_count pool)

let test_round_robin_victims () =
  let module R = Nowa.Presets.Nowa in
  let conf =
    { (Nowa.Config.with_workers 4) with Nowa.Config.victim_policy = Nowa.Config.Round_robin }
  in
  let rec fib n =
    if n < 2 then n
    else
      R.scope (fun sc ->
          let a = R.spawn sc (fun () -> fib (n - 1)) in
          let b = fib (n - 2) in
          R.sync sc;
          R.get a + b)
  in
  Alcotest.(check int) "correct under round-robin stealing" (fib_ref 20)
    (R.run ~conf (fun () -> fib 20))

let test_stack_pool_no_madvise_keeps_pages () =
  let conf = { (Nowa.Config.with_workers 1) with Nowa.Config.madvise = false } in
  let pool = Nowa_runtime.Stack_pool.create conf in
  let s = Nowa_runtime.Stack_pool.acquire pool ~worker:0 in
  Nowa_runtime.Stack_pool.touch s ~pages:31;
  Nowa_runtime.Stack_pool.suspend pool s;
  Alcotest.(check int) "pages stay resident" 32 s.Nowa_runtime.Stack_pool.resident;
  Alcotest.(check int) "no madvise calls" 0 (Nowa_runtime.Stack_pool.madvise_calls pool)

let test_engine_populates_stack_metrics () =
  let module R = Nowa.Presets.Nowa in
  let rec fib sc_n =
    if sc_n < 2 then sc_n
    else
      R.scope (fun sc ->
          let a = R.spawn sc (fun () -> fib (sc_n - 1)) in
          let b = fib (sc_n - 2) in
          R.sync sc;
          R.get a + b)
  in
  ignore (R.run ~conf:(conf 3) (fun () -> fib 20));
  match R.last_metrics () with
  | None -> Alcotest.fail "metrics missing"
  | Some m ->
    Alcotest.(check bool) "every worker acquired a stack" true
      (Nowa.Metrics.total m (fun w -> w.Nowa.Metrics.stack_acquires) >= 1)

(* -- madvise config plumbed through a real run --------------------------- *)

let test_run_with_madvise () =
  let module R = Nowa.Presets.Nowa in
  let conf =
    { (Nowa.Config.with_workers 4) with Nowa.Config.madvise = true; madvise_cost_ns = 100 }
  in
  let rec fib sc_n =
    if sc_n < 2 then sc_n
    else
      R.scope (fun sc ->
          let a = R.spawn sc (fun () -> fib (sc_n - 1)) in
          let b = fib (sc_n - 2) in
          R.sync sc;
          R.get a + b)
  in
  Alcotest.(check int) "correct result with madvise on" (fib_ref 20)
    (R.run ~conf (fun () -> fib 20))

(* -- serial elision ------------------------------------------------------- *)

let test_serial_inline_semantics () =
  let module S = Nowa_runtime.Serial_runtime in
  let order = ref [] in
  let () =
    S.run (fun () ->
        S.scope (fun sc ->
            order := 1 :: !order;
            let _ = S.spawn sc (fun () -> order := 2 :: !order) in
            order := 3 :: !order;
            S.sync sc))
  in
  Alcotest.(check (list int)) "spawn = call in program order" [ 3; 2; 1 ] !order

let spawns (module R : Nowa.RUNTIME) =
  match R.last_metrics () with
  | Some m -> Nowa.Metrics.total m (fun w -> w.Nowa.Metrics.spawns)
  | None -> Alcotest.failf "%s: no metrics" R.name

let registry_spawns () =
  List.find_map
    (fun (s : Nowa_obs.Registry.sample) ->
      if s.name = "nowa_scheduler_spawns_total" then Some s.value else None)
    (Nowa_obs.Registry.snapshot ())

(* The elision counts its spawns in its run's own record, as a 1-worker
   engine run of the same program does.  Outside [S.run] it stores
   nothing (serial thunks may run on several domains at once outside
   any run), and it never replaces the engines' published counters. *)
let test_serial_counts_spawns () =
  let module S = Nowa_runtime.Serial_runtime in
  let module Fn = Nowa_kernels.Fib.Make (Nowa.Presets.Nowa) in
  let module Fs = Nowa_kernels.Fib.Make (S) in
  ignore (Nowa.Presets.Nowa.run ~conf:(conf 1) (fun () -> Fn.run 18));
  let nowa = spawns (module Nowa.Presets.Nowa) and published = registry_spawns () in
  Alcotest.(check int) "nowa: fib 18 spawn points"
    (Nowa_kernels.Fib.spawn_count 18) nowa;
  ignore (S.run (fun () -> Fs.run 18));
  Alcotest.(check int) "serial spawns = nowa on 1 worker" nowa (spawns serial);
  ignore (Fs.run 10);
  Alcotest.(check int) "no count outside the run" nowa (spawns serial);
  Alcotest.(check bool) "the elision does not publish" true
    (published = registry_spawns ())

(* The watchdog reads those counters: a serial run that spawns for
   longer than the stall threshold (25ms x 8) is busy, not stalled. *)
let test_serial_watchdog_reads_spawns () =
  let module S = Nowa_runtime.Serial_runtime in
  let module Fs = Nowa_kernels.Fib.Make (S) in
  let c =
    {
      (conf 1) with
      Nowa.Config.watchdog_interval_ms = 25;
      watchdog_stall_scans = 8;
      watchdog_dump = false;
    }
  in
  S.run ~conf:c (fun () ->
      let stop = Unix.gettimeofday () +. 0.4 in
      while Unix.gettimeofday () < stop do
        ignore (Fs.run 15)
      done);
  Alcotest.(check (list string)) "no verdicts on a spawning serial run" []
    (List.map Nowa.Health.verdict_to_string (Nowa.Health.verdicts ()))

(* -- façade helpers -------------------------------------------------------- *)

let test_parallel_for () =
  let hits = Array.make 1000 0 in
  Nowa.run ~conf:(conf 4) (fun () ->
      Nowa.parallel_for ~grain:16 0 1000 (fun i -> hits.(i) <- hits.(i) + 1));
  Array.iteri
    (fun i c -> if c <> 1 then Alcotest.failf "index %d visited %d times" i c)
    hits

let test_parallel_for_empty_and_tiny () =
  Nowa.run ~conf:(conf 2) (fun () ->
      Nowa.parallel_for 5 5 (fun _ -> Alcotest.fail "empty range must not call");
      let hit = ref false in
      Nowa.parallel_for 7 8 (fun i ->
          Alcotest.(check int) "single index" 7 i;
          hit := true);
      Alcotest.(check bool) "hit" true !hit)

let test_parallel_reduce () =
  let total =
    Nowa.run ~conf:(conf 4) (fun () ->
        Nowa.parallel_reduce ~grain:32 0 10_000 ~map:(fun i -> i) ~combine:( + ) ~init:0)
  in
  Alcotest.(check int) "sum" (10_000 * 9_999 / 2) total

let test_map_array () =
  let input = Array.init 500 (fun i -> i) in
  let out = Nowa.run ~conf:(conf 3) (fun () -> Nowa.map_array ~grain:8 (fun x -> x * x) input) in
  Array.iteri
    (fun i v -> if v <> i * i then Alcotest.failf "map_array wrong at %d" i)
    out

let test_both () =
  let a, b = Nowa.run ~conf:(conf 2) (fun () -> Nowa.both (fun () -> 6) (fun () -> 7)) in
  Alcotest.(check int) "left" 6 a;
  Alcotest.(check int) "right" 7 b

let test_ops_functor_on_baseline () =
  let module Ops = Nowa.Ops (Nowa.Presets.Fibril) in
  let module R = Nowa.Presets.Fibril in
  let total =
    R.run ~conf:(conf 3) (fun () ->
        Ops.parallel_reduce ~grain:10 0 1_000 ~map:(fun i -> i) ~combine:( + ) ~init:0)
  in
  Alcotest.(check int) "reduce on fibril" (1_000 * 999 / 2) total

(* -- preset registry -------------------------------------------------------- *)

let test_presets_find () =
  List.iter
    (fun name ->
      let (module R : Nowa.RUNTIME) = Nowa.Presets.find name in
      Alcotest.(check string) "found the right preset" name R.name)
    [ "nowa"; "nowa-the"; "nowa-abp"; "fibril"; "cilkplus"; "tbb"; "lomp-untied"; "lomp-tied"; "gomp" ];
  Alcotest.check_raises "unknown preset" Not_found (fun () ->
      ignore (Nowa.Presets.find "no-such-runtime"))

let test_preset_sets () =
  Alcotest.(check int) "figure 7 set" 4 (List.length Nowa.Presets.figure7_set);
  Alcotest.(check int) "figure 10 set" 5 (List.length Nowa.Presets.figure10_set)

(* -- micropools (ISSUE 10) -------------------------------------------- *)

let pools_conf ?(spill = false) pools =
  { (Nowa.Config.default ()) with Nowa.Config.pools; spill_over = spill }

let two_pools ?spill () =
  pools_conf ?spill
    [ Nowa.Config.pool "main" ~workers:2; Nowa.Config.pool "aux" ~workers:2 ]

let test_pool_lookup () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      R.run ~conf:(two_pools ()) (fun () ->
          Alcotest.(check string) (R.name ^ ": root runs in first pool") "main"
            (R.self_pool ());
          Alcotest.(check string) (R.name ^ ": aux resolves") "aux"
            (R.pool_name (R.pool "aux"));
          (match R.find_pool "nope" with
          | None -> ()
          | Some _ -> Alcotest.failf "%s: phantom pool resolved" R.name);
          match R.pool "nope" with
          | (_ : R.pool) -> Alcotest.failf "%s: pool did not raise" R.name
          | exception Invalid_argument _ -> ()))
    presets

let test_bad_topology_rejected () =
  let module R = Nowa.Presets.Nowa in
  let rejects what pools =
    match R.run ~conf:(pools_conf pools) (fun () -> ()) with
    | () -> Alcotest.failf "accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  rejects "an oversized pool"
    [ Nowa.Config.pool "huge" ~workers:(Nowa_runtime.Sleepers.mask_bits + 1) ];
  rejects "a zero-worker pool" [ Nowa.Config.pool "empty" ~workers:0 ];
  rejects "duplicate pool names"
    [ Nowa.Config.pool "dup" ~workers:1; Nowa.Config.pool "dup" ~workers:1 ];
  rejects "a nameless pool" [ Nowa.Config.pool "" ~workers:1 ];
  (* A bad topology must not leak guard state: a good run still works. *)
  Alcotest.(check int) "clean run after rejection" 3
    (R.run ~conf:(two_pools ()) (fun () -> 3))

(* With spill-over off, a task routed to pool "aux" must only ever run
   on an "aux" worker — strict isolation is the default.  A 1-worker
   "aux" must also start its routed tasks in injection order: routed
   tasks are FIFO per pool ([Runtime_intf.S.spawn_on]). *)
let test_spawn_on_routing_isolation () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      List.iter
        (fun aux_workers ->
          let conf =
            pools_conf
              [ Nowa.Config.pool "main" ~workers:2;
                Nowa.Config.pool "aux" ~workers:aux_workers ]
          in
          let started = Atomic.make 0 in
          R.run ~conf (fun () ->
              let aux = R.pool "aux" in
              let ps =
                List.init 64 (fun i ->
                    R.spawn_on aux (fun () ->
                        (i, Atomic.fetch_and_add started 1, R.self_pool ())))
              in
              List.iteri
                (fun i p ->
                  let j, start, where = R.await p in
                  Alcotest.(check int) "payload intact" i j;
                  Alcotest.(check string) (R.name ^ ": routed task stays put")
                    "aux" where;
                  if aux_workers = 1 then
                    Alcotest.(check int) (R.name ^ ": routed FIFO order") i start)
                ps))
        [ 2; 1 ])
    presets

(* Routed tasks may open scopes and spawn; the nested work stays in the
   target pool when spill is off. *)
let test_spawn_on_nested_spawns () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let r =
        R.run ~conf:(two_pools ()) (fun () ->
            R.await
              (R.spawn_on (R.pool "aux") (fun () ->
                   R.scope (fun sc ->
                       let a = R.spawn sc (fun () -> fib_ref 10) in
                       let b = fib_ref 9 in
                       R.sync sc;
                       R.get a + b))))
      in
      Alcotest.(check int) (R.name ^ ": nested result") (fib_ref 11) r)
    presets

let test_spawn_on_exception_via_await () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      R.run ~conf:(two_pools ()) (fun () ->
          let p = R.spawn_on (R.pool "aux") (fun () -> failwith "routed boom") in
          match R.await p with
          | (_ : unit) -> Alcotest.failf "%s: exception swallowed" R.name
          | exception Failure m ->
            Alcotest.(check string) "exact exception" "routed boom" m))
    presets

(* Spill-over liveness: wedge pool "busy"'s only worker on a flag, then
   route a second task there.  With spill on, an idle "main" worker must
   pick it up — the await below would otherwise hang until the wedge's
   escape timer fires and the check fails. *)
let test_spill_over_completion () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let wedged = Atomic.make false in
      let release = Atomic.make false in
      let escaped = ref false in
      R.run
        ~conf:
          (pools_conf ~spill:true
             [ Nowa.Config.pool "main" ~workers:2;
               Nowa.Config.pool "busy" ~workers:1 ])
        (fun () ->
          let busy = R.pool "busy" in
          R.spawn_unit_on busy (fun () ->
              Atomic.set wedged true;
              let t0 = Unix.gettimeofday () in
              while
                (not (Atomic.get release))
                && Unix.gettimeofday () -. t0 < 10.0
              do
                Domain.cpu_relax ()
              done;
              if not (Atomic.get release) then escaped := true);
          while not (Atomic.get wedged) do
            Domain.cpu_relax ()
          done;
          let p = R.spawn_on busy (fun () -> R.self_pool ()) in
          let (_ : string) = R.await p in
          Atomic.set release true);
      Alcotest.(check bool)
        (R.name ^ ": spilled task completed before the wedge escape") false
        !escaped)
    presets

(* A routed pipeline: the root injects from a 1-worker feed pool and
   every packet hops three 1-worker stage pools with [spawn_unit_on],
   outside any scope, so no structured sync can join them.  A completion
   count and a checksum composed through the three stage transforms
   catch a lost, duplicated or stage-skipping packet; the deadline turns
   a lost packet into a failure instead of a hang. *)
let test_routed_pipeline_conserves () =
  let packets = 2_000 in
  let stage salt x =
    let x = (x + salt) * 0x9E3779B1 land 0x3FFFFFFFFFFF in
    x lxor (x lsr 13)
  in
  let expected =
    let sum = ref 0 in
    for p = 0 to packets - 1 do
      sum := !sum + stage 3 (stage 2 (stage 1 p))
    done;
    !sum
  in
  let stages = [ "s1"; "s2"; "s3" ] in
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      List.iter
        (fun spill ->
          let completed = Atomic.make 0 and checksum = Atomic.make 0 in
          R.run
            ~conf:
              (pools_conf ~spill
                 (Nowa.Config.pool "feed" ~workers:1
                 :: List.map (fun s -> Nowa.Config.pool s ~workers:1) stages))
            (fun () ->
              let s1 = R.pool "s1" and s2 = R.pool "s2" and s3 = R.pool "s3" in
              for p = 0 to packets - 1 do
                R.spawn_unit_on s1 (fun () ->
                    let x1 = stage 1 p in
                    R.spawn_unit_on s2 (fun () ->
                        let x2 = stage 2 x1 in
                        R.spawn_unit_on s3 (fun () ->
                            ignore (Atomic.fetch_and_add checksum (stage 3 x2));
                            Atomic.incr completed)))
              done;
              let deadline = Unix.gettimeofday () +. 30.0 in
              while
                Atomic.get completed < packets && Unix.gettimeofday () < deadline
              do
                Unix.sleepf 0.0005
              done);
          let what = Printf.sprintf "%s spill=%b" R.name spill in
          Alcotest.(check int) (what ^ ": every packet delivered") packets
            (Atomic.get completed);
          Alcotest.(check int) (what ^ ": checksum") expected (Atomic.get checksum))
        [ false; true ])
    presets

(* A raising [spawn_unit_on] root has no scope to re-raise in: the
   engine that runs it logs it on [nowa.runtime] and goes on
   ([Runtime_intf.S.spawn_unit_on]).  One raising root, then 16 more, to
   a 1-worker pool: the 16 run in injection order, [run] returns
   normally and exactly one error is reported. *)
let test_spawn_unit_on_exception_logged () =
  let errors = Atomic.make 0 in
  let counting =
    {
      Logs.report =
        (fun src level ~over k _ ->
          if Logs.Src.equal src Nowa_runtime.Runtime_log.src && level = Logs.Error
          then Atomic.incr errors;
          over ();
          k ());
    }
  in
  let saved = Logs.reporter () in
  Logs.set_reporter counting;
  Fun.protect
    ~finally:(fun () -> Logs.set_reporter saved)
    (fun () ->
      List.iter
        (fun (module R : Nowa.RUNTIME) ->
          Atomic.set errors 0;
          let order = Array.make 16 (-1) and next = Atomic.make 0 in
          R.run
            ~conf:
              (pools_conf
                 [ Nowa.Config.pool "main" ~workers:1; Nowa.Config.pool "aux" ~workers:1 ])
            (fun () ->
              let aux = R.pool "aux" in
              R.spawn_unit_on aux (fun () -> failwith "routed boom");
              for i = 0 to 15 do
                R.spawn_unit_on aux (fun () -> order.(Atomic.fetch_and_add next 1) <- i)
              done;
              let deadline = Unix.gettimeofday () +. 10.0 in
              while Atomic.get next < 16 && Unix.gettimeofday () < deadline do
                Unix.sleepf 0.0005
              done);
          Alcotest.(check (array int))
            (R.name ^ ": the 16 ran in injection order")
            (Array.init 16 Fun.id) order;
          Alcotest.(check int) (R.name ^ ": one error logged") 1 (Atomic.get errors))
        presets)

(* Caller-side allocation of one routed push, pinned the way
   test_server pins the KV point path: the thunk goes into the queue as
   it is, so the caller allocates the queue node and its link (5 words)
   and nothing else; the task box is the consumer's.  [Gc.minor_words]
   counts only the calling domain.  A wrapper closure and a task box
   per push would read 14. *)
let route_alloc_pin = 5.0

let test_spawn_unit_on_alloc () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let n = 100_000 in
      let ran = Atomic.make 0 in
      let thunk () = Atomic.incr ran in
      let words =
        R.run
          ~conf:
            (pools_conf
               [ Nowa.Config.pool "main" ~workers:1; Nowa.Config.pool "aux" ~workers:1 ])
          (fun () ->
            let aux = R.pool "aux" in
            let w0 = Gc.minor_words () in
            for _ = 1 to n do
              R.spawn_unit_on aux thunk
            done;
            let words = (Gc.minor_words () -. w0) /. float_of_int n in
            let deadline = Unix.gettimeofday () +. 30.0 in
            while Atomic.get ran < n && Unix.gettimeofday () < deadline do
              Unix.sleepf 0.0005
            done;
            words)
      in
      Alcotest.(check int) (R.name ^ ": every routed thunk ran") n (Atomic.get ran);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f minor words per spawn_unit_on (pinned <= %.1f)" R.name
           words route_alloc_pin)
        true (words <= route_alloc_pin))
    presets

(* Routed roots still queued when [main] returns are counted, not run:
   [main] routes [n] roots behind a 50 ms task on a 1-worker pool and
   returns at once.  The count is in [last_metrics] and in the registry's
   [nowa_routed_abandoned_total]. *)
let test_routed_abandoned_counted () =
  let n = 8 in
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let started = Atomic.make false and pushed = Atomic.make false in
      let ran = Atomic.make 0 in
      R.run
        ~conf:
          (pools_conf
             [ Nowa.Config.pool "main" ~workers:1; Nowa.Config.pool "busy" ~workers:1 ])
        (fun () ->
          let busy = R.pool "busy" in
          R.spawn_unit_on busy (fun () ->
              Atomic.set started true;
              while not (Atomic.get pushed) do
                Domain.cpu_relax ()
              done;
              Unix.sleepf 0.05);
          while not (Atomic.get started) do
            Domain.cpu_relax ()
          done;
          for _ = 1 to n do
            R.spawn_unit_on busy (fun () -> Atomic.incr ran)
          done;
          Atomic.set pushed true);
      Alcotest.(check int) (R.name ^ ": queued roots did not run") 0 (Atomic.get ran);
      (match R.last_metrics () with
      | Some m ->
        Alcotest.(check int) (R.name ^ ": abandoned roots counted") n
          m.Nowa.Metrics.routed_abandoned
      | None -> Alcotest.failf "%s: no metrics" R.name);
      let exported =
        List.find_map
          (fun (s : Nowa_obs.Registry.sample) ->
            match s.value with
            | Nowa_obs.Registry.Counter v
              when String.equal s.name "nowa_routed_abandoned_total" ->
              Some v
            | _ -> None)
          (Nowa_obs.Registry.snapshot ())
      in
      Alcotest.(check (option (float 0.)))
        (R.name ^ ": exported") (Some (float_of_int n)) exported)
    [ (module Nowa.Presets.Nowa : Nowa.RUNTIME); (module Nowa.Presets.Gomp) ]

let test_pool_api_serial_elision () =
  let module S = Nowa_runtime.Serial_runtime in
  S.run (fun () ->
      Alcotest.(check string) "self" "main" (S.self_pool ());
      (* any name resolves under the elision *)
      let p = S.spawn_on (S.pool "anything") (fun () -> 41 + 1) in
      Alcotest.(check int) "inline spawn_on" 42 (S.await p);
      let hit = ref false in
      S.spawn_unit_on (S.pool "other") (fun () -> hit := true);
      Alcotest.(check bool) "inline spawn_unit_on" true !hit)

let () =
  Alcotest.run "nowa_runtime"
    [
      ( "correctness",
        [
          Alcotest.test_case "fib on all presets" `Slow test_fib_all_presets;
          Alcotest.test_case "multiple syncs per scope" `Quick test_multiple_syncs_per_scope;
          Alcotest.test_case "wide frame" `Slow test_deep_sequential_spawns;
          Alcotest.test_case "nested scopes" `Quick test_nested_scopes;
          Alcotest.test_case "implicit sync at scope exit" `Quick test_scope_implicit_sync;
          Alcotest.test_case "polymorphic results" `Quick test_run_return_value_types;
          QCheck_alcotest.to_alcotest (prop_random_trees (module Nowa.Presets.Nowa));
          QCheck_alcotest.to_alcotest (prop_random_trees (module Nowa.Presets.Fibril));
          QCheck_alcotest.to_alcotest (prop_random_trees (module Nowa.Presets.Tbb));
          QCheck_alcotest.to_alcotest (prop_random_trees (module Nowa.Presets.Gomp));
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "from main" `Quick test_exception_from_main;
          Alcotest.test_case "from child at sync" `Quick test_exception_from_child;
          Alcotest.test_case "via get" `Quick test_exception_via_get;
          Alcotest.test_case "sibling survives" `Quick test_sibling_survives_child_exception;
          Alcotest.test_case "pending get rejected" `Quick test_pending_get_rejected;
        ] );
      ( "steal paths",
        [
          Alcotest.test_case "forced steal roundtrip" `Slow test_forced_steal_roundtrip;
          Alcotest.test_case "stamped frame follows a migrated strand" `Slow
            test_stamp_follows_migration;
        ] );
      ( "guard",
        [
          Alcotest.test_case "no nested runs" `Quick test_no_nested_runs;
          Alcotest.test_case "api outside run" `Quick test_api_outside_run;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "spawn counts" `Quick test_metrics_spawn_counts;
          Alcotest.test_case "steal accounting" `Slow test_metrics_steals_with_workers;
        ] );
      ( "fusion audit",
        [
          Alcotest.test_case "no-steal invariant single worker" `Quick
            test_no_steal_invariant_single_worker;
          Alcotest.test_case "lazy exposure single worker" `Quick
            test_lazy_exposure_single_worker;
          Alcotest.test_case "sync branch conservation" `Slow
            test_fused_sync_conservation;
          Alcotest.test_case "forced steal syncs accounted" `Slow
            test_forced_steal_syncs_accounted;
        ] );
      ( "re-exposure",
        [
          Alcotest.test_case "bounded per period" `Quick test_reexposure_bounded;
          Alcotest.test_case "spreads long children" `Slow
            test_reexposure_spreads_long_children;
          Alcotest.test_case "first exposure exempt" `Slow
            test_first_exposure_exempt;
          Alcotest.test_case "backs off while nobody steals" `Quick
            test_reexposure_backs_off;
          Alcotest.test_case "a parked pool-mate still gets a backed-off loop" `Slow
            test_reexposure_backoff_wakes_parked;
          Alcotest.test_case "busy pool-mates are not offered" `Quick
            test_reexposure_busy_mates;
        ] );
      ( "stack pool",
        [
          Alcotest.test_case "reuse through caches" `Quick test_stack_pool_reuse;
          Alcotest.test_case "rss watermark" `Quick test_stack_pool_rss_watermark;
          Alcotest.test_case "madvise frees pages" `Quick test_stack_pool_madvise;
          Alcotest.test_case "no madvise keeps pages" `Quick test_stack_pool_no_madvise_keeps_pages;
          Alcotest.test_case "dontneed refaults" `Quick test_stack_pool_madvise_dontneed_refaults;
          Alcotest.test_case "madv_free no refault" `Quick test_stack_pool_madv_free_no_refault;
          Alcotest.test_case "engine metrics" `Quick test_engine_populates_stack_metrics;
          Alcotest.test_case "run with madvise" `Quick test_run_with_madvise;
        ] );
      ( "steal policy",
        [ Alcotest.test_case "round-robin victims" `Quick test_round_robin_victims ] );
      ( "idle policy",
        [
          Alcotest.test_case "fib under all policies" `Slow
            test_idle_policies_all_presets;
          Alcotest.test_case "shutdown wakes parked workers" `Quick
            test_shutdown_wakes_parked_workers;
          Alcotest.test_case "park metrics" `Quick test_park_metrics;
        ] );
      ( "serial elision",
        [
          Alcotest.test_case "inline semantics" `Quick test_serial_inline_semantics;
          Alcotest.test_case "counts spawns in its run" `Quick
            test_serial_counts_spawns;
          Alcotest.test_case "watchdog reads its spawns" `Quick
            test_serial_watchdog_reads_spawns;
        ] );
      ( "facade",
        [
          Alcotest.test_case "parallel_for" `Quick test_parallel_for;
          Alcotest.test_case "parallel_for edges" `Quick test_parallel_for_empty_and_tiny;
          Alcotest.test_case "parallel_reduce" `Quick test_parallel_reduce;
          Alcotest.test_case "map_array" `Quick test_map_array;
          Alcotest.test_case "both" `Quick test_both;
          Alcotest.test_case "Ops functor" `Quick test_ops_functor_on_baseline;
        ] );
      ( "presets",
        [
          Alcotest.test_case "find" `Quick test_presets_find;
          Alcotest.test_case "figure sets" `Quick test_preset_sets;
        ] );
      ( "micropools",
        [
          Alcotest.test_case "pool lookup" `Quick test_pool_lookup;
          Alcotest.test_case "bad topology rejected" `Quick
            test_bad_topology_rejected;
          Alcotest.test_case "spawn_on isolation (spill off)" `Slow
            test_spawn_on_routing_isolation;
          Alcotest.test_case "nested spawns in routed task" `Slow
            test_spawn_on_nested_spawns;
          Alcotest.test_case "exception via await" `Quick
            test_spawn_on_exception_via_await;
          Alcotest.test_case "spill-over completion" `Slow
            test_spill_over_completion;
          Alcotest.test_case "routed pipeline conserves packets" `Quick
            test_routed_pipeline_conserves;
          Alcotest.test_case "spawn_unit_on exception logged" `Quick
            test_spawn_unit_on_exception_logged;
          Alcotest.test_case "spawn_unit_on caller allocation" `Quick
            test_spawn_unit_on_alloc;
          Alcotest.test_case "abandoned routed roots counted" `Quick
            test_routed_abandoned_counted;
          Alcotest.test_case "serial elision pool api" `Quick
            test_pool_api_serial_elision;
        ] );
    ]
