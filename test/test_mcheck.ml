(* Model-checking the platform's coordination code (the Section II-D
   methodology): exhaustive interleaving exploration of the shipped
   deques, join counters, sleeper registry and inject queue, compiled
   against traced primitives; a mechanical exhibition of the Figure 6
   race on a naive counter and its absence from the wait-free and
   lock-based counters; the DPOR-vs-naive cross-checks; and
   pinned-schedule regressions for every bug the checker shook out. *)

module M = Nowa_mcheck.Mcheck
module S = Nowa_mcheck.Specs

let expect_ok name result =
  match result with
  | M.Ok o ->
    Alcotest.(check bool) (name ^ ": explored something") true (o.M.executions > 0)
  | M.Violation { schedule; message } ->
    Alcotest.failf "%s: unexpected violation %S on schedule [%s]" name message
      (String.concat ";" (List.map string_of_int schedule))

let expect_exhaustive name result =
  match result with
  | M.Ok o ->
    Alcotest.(check bool) (name ^ ": complete") true o.M.complete;
    Alcotest.(check bool) (name ^ ": explored something") true (o.M.executions > 0)
  | M.Violation { schedule; message } ->
    Alcotest.failf "%s: unexpected violation %S on schedule [%s]" name message
      (String.concat ";" (List.map string_of_int schedule))

let expect_violation name result =
  match result with
  | M.Violation _ -> ()
  | M.Ok o ->
    Alcotest.failf "%s: no violation found in %d executions (complete=%b)" name
      o.M.executions o.M.complete

(* -- the explorer itself ------------------------------------------------ *)

let test_explorer_counts_interleavings () =
  (* Two threads of two atomic writes each on distinct cells.  A thread
     with k scheduling points needs k+1 quanta (the last runs it to
     completion), so the naive enumeration sees C(6,3) = 20
     interleavings.  The two threads share no cell, so DPOR must
     recognise a single Mazurkiewicz trace and explore exactly 1. *)
  let spec () =
    let a = M.Cell.make 0 and b = M.Cell.make 0 in
    let inc c () =
      M.Cell.write c 1;
      M.Cell.write c 2
    in
    ([ inc a; inc b ], fun () -> M.Cell.peek a = 2 && M.Cell.peek b = 2)
  in
  (match M.explore_naive spec with
  | M.Ok o ->
    Alcotest.(check int) "naive: C(6,3) interleavings" 20 o.M.executions;
    Alcotest.(check bool) "naive: complete" true o.M.complete
  | M.Violation _ -> Alcotest.fail "naive: unexpected violation");
  match M.explore spec with
  | M.Ok o ->
    Alcotest.(check int) "dpor: one trace" 1 o.M.executions;
    Alcotest.(check bool) "dpor: complete" true o.M.complete
  | M.Violation _ -> Alcotest.fail "dpor: unexpected violation"

let test_explorer_finds_lost_update () =
  (* The classic racy read-modify-write: two threads doing
     read;write(+1) — some interleaving loses an update.  Both the
     reduced and the naive search must find it. *)
  let spec () =
    let c = M.Cell.make 0 in
    let inc () =
      let v = M.Cell.read c in
      M.Cell.write c (v + 1)
    in
    ([ inc; inc ], fun () -> M.Cell.peek c = 2)
  in
  expect_violation "lost update (dpor)" (M.explore spec);
  expect_violation "lost update (naive)" (M.explore_naive spec)

let test_explorer_atomic_rmw_safe () =
  let spec () =
    let c = M.Cell.make 0 in
    let inc () = ignore (M.Cell.fetch_add c 1) in
    ([ inc; inc; inc ], fun () -> M.Cell.peek c = 3)
  in
  expect_exhaustive "fetch_add" (M.explore spec)

let test_explorer_reports_check_failures () =
  let spec () =
    let c = M.Cell.make 0 in
    let t1 () = M.Cell.write c 1 in
    let t2 () = M.check (M.Cell.read c = 0) "saw the other thread's write" in
    ([ t1; t2 ], fun () -> true)
  in
  expect_violation "inline check" (M.explore spec)

let test_explorer_budget () =
  let spec () =
    let c = M.Cell.make 0 in
    let busy () =
      for _ = 1 to 6 do
        ignore (M.Cell.fetch_add c 1)
      done
    in
    ([ busy; busy; busy ], fun () -> true)
  in
  match M.explore ~max_executions:50 spec with
  | M.Ok o ->
    Alcotest.(check bool) "budget respected" true
      (o.M.executions + o.M.truncated + o.M.blocked <= 50);
    Alcotest.(check bool) "flagged incomplete" false o.M.complete
  | M.Violation _ -> Alcotest.fail "unexpected violation"

let test_truncations_consume_budget () =
  (* Regression for the budget leak: executions cut off at [max_steps]
     must count toward [max_executions] (or the search under a step
     bound runs arbitrarily past its budget), and their presence must
     force [complete = false] even when the execution budget was never
     hit — a truncated search proved nothing about deeper schedules. *)
  let spec () =
    let c = M.Cell.make 0 in
    let busy () =
      for _ = 1 to 10 do
        ignore (M.Cell.fetch_add c 1)
      done
    in
    ([ busy; busy ], fun () -> true)
  in
  (match M.explore ~max_executions:30 ~max_steps:5 spec with
  | M.Ok o ->
    Alcotest.(check bool) "truncated some" true (o.M.truncated > 0);
    Alcotest.(check bool) "truncations count toward the budget" true
      (o.M.executions + o.M.truncated + o.M.blocked <= 30);
    Alcotest.(check bool) "never complete when truncating" false o.M.complete
  | M.Violation _ -> Alcotest.fail "unexpected violation");
  (* and a roomy execution budget still reports incomplete if any
     execution hit the step bound *)
  match M.explore ~max_executions:100_000 ~max_steps:5 spec with
  | M.Ok o ->
    Alcotest.(check bool) "truncation alone defeats complete" false o.M.complete
  | M.Violation _ -> Alcotest.fail "unexpected violation"

let test_explorer_spin_rule () =
  (* [relax] disables a spinner until the cell it last read changes.
     With a writer the loop exits on the write, so the search is finite
     and exhaustive; alone, the spinner ends blocked and the "A
     finished" invariant must report it rather than the search hanging
     or truncating. *)
  let spec ~writer () =
    let c = M.Cell.make false in
    let finished = ref false in
    let a () =
      while not (M.Cell.read c) do
        M.relax ()
      done;
      finished := true
    in
    let b () = M.Cell.write c true in
    ((if writer then [ a; b ] else [ a ]), fun () -> !finished)
  in
  expect_exhaustive "spinner released by the write" (M.explore (spec ~writer:true));
  expect_violation "spinner with no writer ends blocked"
    (M.explore (spec ~writer:false))

(* -- DPOR vs naive: verdict agreement and reduction factor --------------- *)

let verdict_of = function M.Ok _ -> "ok" | M.Violation _ -> "violation"

let test_dpor_naive_agree () =
  (* Every existing spec, both searches, identical verdicts. *)
  let specs =
    [
      ("chase_lev 2/1/1", S.deque_spec `Chase_lev ~pushes:2 ~pops:1 ~thieves:1);
      ("chase_lev 1/1/1", S.deque_spec `Chase_lev ~pushes:1 ~pops:1 ~thieves:1);
      ("the_queue 1/1/1", S.deque_spec `The_queue ~pushes:1 ~pops:1 ~thieves:1);
      ("the_queue 2/1/1", S.deque_spec `The_queue ~pushes:2 ~pops:1 ~thieves:1);
      ("naive_counter", S.naive_counter_spec);
      ("wait_free_counter", S.join_counter_spec `Wait_free);
      ("lock_counter", S.join_counter_spec `Lock);
    ]
  in
  List.iter
    (fun (name, spec) ->
      (* identical (deliberately modest) bounds for both searches: the
         spin-loop specs (lock counter, THE queue) would otherwise chew
         through minutes of naive enumeration without changing any
         verdict *)
      let d = M.explore ~max_executions:20_000 spec in
      let n = M.explore_naive ~max_executions:20_000 spec in
      Alcotest.(check string)
        (name ^ ": dpor and naive verdicts agree")
        (verdict_of n) (verdict_of d))
    specs

let test_dpor_reduction_factor () =
  (* The acceptance criterion: >= 10x fewer executions than the naive
     DFS at identical bounds, on at least two specs, both counts
     printed. *)
  let measure name spec =
    let count = function
      | M.Ok o -> o.M.executions
      | M.Violation _ -> Alcotest.failf "%s: unexpected violation" name
    in
    let naive = count (M.explore_naive ~max_executions:500_000 spec) in
    let dpor = count (M.explore ~max_executions:500_000 spec) in
    Printf.printf "mcheck reduction %-18s naive=%d dpor=%d (%.0fx)\n%!" name
      naive dpor
      (float_of_int naive /. float_of_int (max 1 dpor));
    Alcotest.(check bool)
      (Printf.sprintf "%s: >=10x reduction (naive=%d dpor=%d)" name naive dpor)
      true
      (naive >= 10 * dpor)
  in
  measure "chase_lev 2/1/1" (S.deque_spec `Chase_lev ~pushes:2 ~pops:1 ~thieves:1);
  measure "the_queue 2/1/1" (S.deque_spec `The_queue ~pushes:2 ~pops:1 ~thieves:1);
  measure "wait_free_counter" (S.join_counter_spec `Wait_free)

(* -- deques -------------------------------------------------------------- *)

let test_chase_lev_owner_vs_thief () =
  expect_ok "CL 2 pushes, 1 pop, 1 thief"
    (M.explore (S.deque_spec `Chase_lev ~pushes:2 ~pops:1 ~thieves:1))

let test_chase_lev_two_thieves () =
  expect_ok "CL 1 push, 2 thieves"
    (M.explore (S.deque_spec `Chase_lev ~pushes:1 ~pops:0 ~thieves:2))

let test_chase_lev_last_element_race () =
  expect_ok "CL 1 push, 1 pop, 1 thief (single-element race)"
    (M.explore (S.deque_spec `Chase_lev ~pushes:1 ~pops:1 ~thieves:1))

let test_chase_lev_drain () =
  expect_ok "CL 2 pushes, 2 pops, 1 thief"
    (M.explore (S.deque_spec `Chase_lev ~pushes:2 ~pops:2 ~thieves:1))

let test_chase_lev_grow () =
  expect_exhaustive "CL grow, pop + batch steal"
    (M.explore
       (S.deque_spec `Chase_lev ~capacity:8 ~batch:2 ~pushes:9 ~pops:1 ~thieves:1));
  expect_exhaustive "CL grow, two thieves"
    (M.explore (S.deque_spec `Chase_lev ~capacity:8 ~pushes:9 ~pops:1 ~thieves:2))

let test_the_queue_owner_vs_thief () =
  expect_ok "THE 2 pushes, 1 pop, 1 thief"
    (M.explore (S.deque_spec `The_queue ~pushes:2 ~pops:1 ~thieves:1))

let test_the_queue_conflict_path () =
  expect_ok "THE 1 push, 1 pop, 1 thief (lock arbitration)"
    (M.explore (S.deque_spec `The_queue ~pushes:1 ~pops:1 ~thieves:1))

let test_the_queue_grow () =
  (* 9 pushes into the 8-slot minimum ring while a thief holds a
     claimed-but-unread slot: the owner must grow, not wrap onto it *)
  expect_exhaustive "THE grow, single steal"
    (M.explore (S.deque_spec `The_queue ~capacity:8 ~pushes:9 ~pops:1 ~thieves:1));
  expect_exhaustive "THE grow, batch steal"
    (M.explore
       (S.deque_spec `The_queue ~capacity:8 ~batch:2 ~pushes:9 ~pops:1 ~thieves:1))

let test_the_queue_two_thieves () =
  expect_ok "THE 2 pushes, 0 pops, 2 thieves"
    (M.explore ~max_executions:60_000
       (S.deque_spec `The_queue ~pushes:2 ~pops:0 ~thieves:2))

(* -- steal_batch on all four deques -------------------------------------- *)

let test_batch_chase_lev () =
  expect_exhaustive "CL batch 3/1/2/1"
    (M.explore (S.deque_spec `Chase_lev ~batch:2 ~pushes:3 ~pops:1 ~thieves:1))

let test_batch_chase_lev_two_thieves () =
  expect_exhaustive "CL batch 2/0/2/2"
    (M.explore (S.deque_spec `Chase_lev ~batch:2 ~pushes:2 ~pops:0 ~thieves:2))

let test_batch_the_queue () =
  expect_exhaustive "THE batch 3/1/2/1"
    (M.explore (S.deque_spec `The_queue ~batch:2 ~pushes:3 ~pops:1 ~thieves:1))

let test_batch_abp () =
  expect_exhaustive "ABP batch 3/1/2/1"
    (M.explore (S.deque_spec `Abp ~batch:2 ~pushes:3 ~pops:1 ~thieves:1))

let test_batch_locked () =
  expect_exhaustive "locked batch 3/1/2/1"
    (M.explore (S.deque_spec `Locked ~batch:2 ~pushes:3 ~pops:1 ~thieves:1))

(* -- strand counters ------------------------------------------------------ *)

let test_naive_counter_has_the_figure6_race () =
  expect_violation "naive counter (Figure 6)"
    (M.explore S.naive_counter_spec)

let test_wait_free_counter_is_race_free () =
  match M.explore (S.join_counter_spec `Wait_free) with
  | M.Ok o -> Alcotest.(check bool) "exhaustive" true o.M.complete
  | M.Violation { schedule; message } ->
    Alcotest.failf "wait-free counter violated: %S on [%s]" message
      (String.concat ";" (List.map string_of_int schedule))

let test_lock_counter_is_race_free () =
  match M.explore (S.join_counter_spec `Lock) with
  | M.Ok o -> Alcotest.(check bool) "nontrivial" true (o.M.executions > 10)
  | M.Violation { schedule; message } ->
    Alcotest.failf "lock counter violated: %S on [%s]" message
      (String.concat ";" (List.map string_of_int schedule))

(* -- the sleeper registry -------------------------------------------------- *)

let test_sleeper_no_lost_wakeup () =
  expect_exhaustive "sleeper good 1 worker"
    (M.explore (S.sleeper_spec ~workers:1 ~tasks:1));
  expect_exhaustive "sleeper good 2 workers"
    (M.explore ~max_executions:500_000 (S.sleeper_spec ~workers:2 ~tasks:1))

let test_sleeper_check_before_announce_loses_wakeups () =
  expect_violation "check-before-announce sleeper"
    (M.explore (S.sleeper_spec ~variant:`Check_before_announce ~workers:1 ~tasks:1))

let test_sleeper_wake_cancel () =
  expect_exhaustive "wake vs cancel, 1 waker"
    (M.explore (S.sleeper_wake_cancel_spec ~wakers:1));
  expect_exhaustive "wake vs cancel, 2 wakers"
    (M.explore (S.sleeper_wake_cancel_spec ~wakers:2))

let test_sleeper_shutdown () =
  expect_exhaustive "wake_all at shutdown"
    (M.explore (S.sleeper_shutdown_spec ~workers:2))

(* -- cross-pool spill-over (ISSUE 10) -------------------------------------- *)

let test_spillover_handoff () =
  expect_exhaustive "spillover inject handoff"
    (M.explore ~max_executions:500_000 (S.spillover_spec ~variant:`Good))

let test_spillover_no_sweep_strands_the_root () =
  expect_violation "park without the final sweep"
    (M.explore (S.spillover_spec ~variant:`No_final_sweep))

(* -- the routed queue -------------------------------------------------------
   The shipped [Inject_queue] with the thief popping once (the battery's
   row pops twice, about 10x the executions), and the generated copy
   whose pop moves the head with a plain write. *)

let test_inject_queue_exactly_once_fifo () =
  expect_exhaustive "inject queue, 2 producers x 2 consumers"
    (M.explore (S.inject_queue_spec ~thief_pops:1))

let test_inject_queue_needs_head_cas () =
  expect_violation "inject queue without the head CAS"
    (M.explore (S.inject_queue_spec ~variant:`No_head_cas ~thief_pops:1))

(* -- pinned-schedule regressions ------------------------------------------ *)

(* Each bug the checker found stays pinned by its literal failing
   schedule: [run_schedule] replays the exact interleaving and must
   still observe the violation.  If a spec change invalidates a pin,
   [run_schedule] raises (stale pin) rather than silently passing. *)

let expect_pinned name spec schedule =
  match M.run_schedule spec schedule with
  | M.Violation _ -> ()
  | M.Ok _ ->
    Alcotest.failf "%s: pinned schedule no longer violates" name

let test_pinned_figure6_schedule () =
  (* worker runs to its sync-point read before the thief's increment
     lands: the Figure-6 window *)
  expect_pinned "naive counter"
    S.naive_counter_spec
    [ 0; 0; 0; 1; 1; 0; 1; 1; 0; 0; 1 ]

let test_pinned_lost_wakeup_schedule () =
  (* worker re-checks (empty) and starts announcing, spawner pushes +
     wake_one (the word still has no bit: skips), worker publishes its
     bit and parks forever *)
  expect_pinned "check-before-announce sleeper"
    (S.sleeper_spec ~variant:`Check_before_announce ~workers:1 ~tasks:1)
    [ 0; 0; 0; 0; 0; 1; 1; 1; 0; 0; 0; 0 ]

let test_pins_track_explorer () =
  (* The pin must stay in sync with what the explorer reports: derive a
     fresh violating schedule and replay it. *)
  match M.explore S.naive_counter_spec with
  | M.Ok _ -> Alcotest.fail "expected a violation to pin"
  | M.Violation { schedule; _ } ->
    expect_pinned "freshly derived schedule"
      S.naive_counter_spec
      schedule

(* -- random-walk fallback -------------------------------------------------- *)

let test_random_finds_figure6 () =
  expect_violation "random walk finds the Figure-6 race"
    (M.explore_random ~seed:1 ~max_schedules:2000
       S.naive_counter_spec)

let test_random_never_claims_complete () =
  match
    M.explore_random ~seed:1 ~max_schedules:200
      (S.join_counter_spec `Wait_free)
  with
  | M.Ok o ->
    Alcotest.(check bool) "sampling is never a proof" false o.M.complete;
    Alcotest.(check int) "reports schedules sampled" 200 o.M.executions
  | M.Violation { schedule; message } ->
    Alcotest.failf "wait-free counter violated: %S on [%s]" message
      (String.concat ";" (List.map string_of_int schedule))

let () =
  Alcotest.run "nowa_mcheck"
    [
      ( "explorer",
        [
          Alcotest.test_case "interleaving count" `Quick test_explorer_counts_interleavings;
          Alcotest.test_case "finds lost updates" `Quick test_explorer_finds_lost_update;
          Alcotest.test_case "atomic rmw safe" `Quick test_explorer_atomic_rmw_safe;
          Alcotest.test_case "inline checks" `Quick test_explorer_reports_check_failures;
          Alcotest.test_case "budget" `Quick test_explorer_budget;
          Alcotest.test_case "truncations consume budget" `Quick
            test_truncations_consume_budget;
          Alcotest.test_case "spin rule" `Quick test_explorer_spin_rule;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "dpor and naive agree" `Slow test_dpor_naive_agree;
          Alcotest.test_case "reduction factor" `Slow test_dpor_reduction_factor;
        ] );
      ( "chase-lev",
        [
          Alcotest.test_case "owner vs thief" `Slow test_chase_lev_owner_vs_thief;
          Alcotest.test_case "two thieves" `Quick test_chase_lev_two_thieves;
          Alcotest.test_case "last-element race" `Quick test_chase_lev_last_element_race;
          Alcotest.test_case "drain" `Slow test_chase_lev_drain;
          Alcotest.test_case "grow under steals" `Quick test_chase_lev_grow;
        ] );
      ( "the queue",
        [
          Alcotest.test_case "owner vs thief" `Slow test_the_queue_owner_vs_thief;
          Alcotest.test_case "conflict path" `Quick test_the_queue_conflict_path;
          Alcotest.test_case "two thieves" `Slow test_the_queue_two_thieves;
          Alcotest.test_case "grow under a steal" `Quick test_the_queue_grow;
        ] );
      ( "steal batch",
        [
          Alcotest.test_case "chase-lev" `Quick test_batch_chase_lev;
          Alcotest.test_case "chase-lev two thieves" `Quick
            test_batch_chase_lev_two_thieves;
          Alcotest.test_case "the queue" `Quick test_batch_the_queue;
          Alcotest.test_case "abp" `Quick test_batch_abp;
          Alcotest.test_case "locked" `Quick test_batch_locked;
        ] );
      ( "strand counters",
        [
          Alcotest.test_case "naive has the Figure 6 race" `Quick
            test_naive_counter_has_the_figure6_race;
          Alcotest.test_case "wait-free is race free" `Quick
            test_wait_free_counter_is_race_free;
          Alcotest.test_case "lock-based is race free" `Quick
            test_lock_counter_is_race_free;
        ] );
      ( "sleepers",
        [
          Alcotest.test_case "no lost wake-up" `Slow test_sleeper_no_lost_wakeup;
          Alcotest.test_case "check-before-announce is buggy" `Quick
            test_sleeper_check_before_announce_loses_wakeups;
          Alcotest.test_case "wake vs cancel" `Quick test_sleeper_wake_cancel;
          Alcotest.test_case "shutdown wake_all" `Slow test_sleeper_shutdown;
          Alcotest.test_case "spillover handoff" `Slow test_spillover_handoff;
          Alcotest.test_case "spillover needs the final sweep" `Quick
            test_spillover_no_sweep_strands_the_root;
        ] );
      ( "inject queue",
        [
          Alcotest.test_case "exactly once, per-producer FIFO" `Quick
            test_inject_queue_exactly_once_fifo;
          Alcotest.test_case "head CAS needed" `Quick test_inject_queue_needs_head_cas;
        ] );
      ( "pinned schedules",
        [
          Alcotest.test_case "figure 6" `Quick test_pinned_figure6_schedule;
          Alcotest.test_case "lost wake-up" `Quick test_pinned_lost_wakeup_schedule;
          Alcotest.test_case "pins track the explorer" `Quick
            test_pins_track_explorer;
        ] );
      ( "random walk",
        [
          Alcotest.test_case "finds figure 6" `Quick test_random_finds_figure6;
          Alcotest.test_case "never claims complete" `Quick
            test_random_never_claims_complete;
        ] );
    ]
