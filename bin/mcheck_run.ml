(* Exhaustive model-checking battery for CI: every spec in
   Nowa_mcheck.Specs run under the DPOR explorer against its expected
   verdict, with a JSON report and any violating schedules written out
   as artifacts.

     mcheck_run [--budget N] [--steps N] [--out FILE] [--violations DIR]

   Exit status is non-zero iff any spec's verdict differs from its
   expectation — a protocol we believe verified reporting a violation
   (or the reverse) fails the build, and the offending schedule lands in
   the artifacts for replay with Mcheck.run_schedule. *)

module M = Nowa_mcheck.Mcheck
module S = Nowa_mcheck.Specs

type expect =
  | Verified (* Ok and complete: an exhaustive proof at these bounds *)
  | Violates (* the checker must exhibit a failing schedule *)

let battery =
  [
    ("naive_counter", Violates, S.naive_counter_spec);
    ("wait_free_counter", Verified, S.join_counter_spec `Wait_free);
    ("lock_counter", Verified, S.join_counter_spec `Lock);
    ("chase_lev_2_1_1", Verified, S.deque_spec `Chase_lev ~pushes:2 ~pops:1 ~thieves:1);
    ("chase_lev_2_2_1", Verified, S.deque_spec `Chase_lev ~pushes:2 ~pops:2 ~thieves:1);
    ( "chase_lev_grow",
      Verified,
      S.deque_spec `Chase_lev ~capacity:8 ~batch:2 ~pushes:9 ~pops:1 ~thieves:1 );
    ( "chase_lev_grow_2thieves",
      Verified,
      S.deque_spec `Chase_lev ~capacity:8 ~pushes:9 ~pops:1 ~thieves:2 );
    ("the_queue_2_1_1", Verified, S.deque_spec `The_queue ~pushes:2 ~pops:1 ~thieves:1);
    ( "the_queue_grow",
      Verified,
      S.deque_spec `The_queue ~capacity:8 ~pushes:9 ~pops:1 ~thieves:1 );
    ( "the_queue_grow_batch",
      Verified,
      S.deque_spec `The_queue ~capacity:8 ~batch:2 ~pushes:9 ~pops:1 ~thieves:1 );
    ("sleeper_1w_1t", Verified, S.sleeper_spec ~variant:`Good ~workers:1 ~tasks:1);
    ("sleeper_2w_1t", Verified, S.sleeper_spec ~variant:`Good ~workers:2 ~tasks:1);
    ( "sleeper_check_before_announce",
      Violates,
      S.sleeper_spec ~variant:`Check_before_announce ~workers:1 ~tasks:1 );
    ("sleeper_wake_cancel_2", Verified, S.sleeper_wake_cancel_spec ~wakers:2);
    ("sleeper_shutdown_2w", Verified, S.sleeper_shutdown_spec ~workers:2);
    ( "chase_lev_batch",
      Verified,
      S.deque_spec `Chase_lev ~batch:2 ~pushes:3 ~pops:1 ~thieves:1 );
    ( "chase_lev_batch_2thieves",
      Verified,
      S.deque_spec `Chase_lev ~batch:2 ~pushes:2 ~pops:0 ~thieves:2 );
    ( "the_queue_batch",
      Verified,
      S.deque_spec `The_queue ~batch:2 ~pushes:3 ~pops:1 ~thieves:1 );
    ("abp_batch", Verified, S.deque_spec `Abp ~batch:2 ~pushes:3 ~pops:1 ~thieves:1);
    ( "locked_batch",
      Verified,
      S.deque_spec `Locked ~batch:2 ~pushes:3 ~pops:1 ~thieves:1 );
    ("kv_combiner_2", Verified, S.kv_combiner_spec ~variant:`Good ~fast:0 ~pushers:2);
    ( "kv_combiner_no_recheck",
      Violates,
      S.kv_combiner_spec ~variant:`No_recheck ~fast:0 ~pushers:2 );
    ("kv_combiner_fast", Verified, S.kv_combiner_spec ~variant:`Good ~fast:1 ~pushers:1);
    ( "kv_combiner_fast_no_recheck",
      Violates,
      S.kv_combiner_spec ~variant:`Fast_no_recheck ~fast:1 ~pushers:1 );
    ("kv_handoff", Verified, S.kv_handoff_spec ~variant:`Good);
    ( "kv_handoff_no_defer",
      Violates,
      S.kv_handoff_spec ~variant:`No_defer );
    ("kv_parked_retry", Verified, S.kv_parked_retry_spec ~variant:`Good);
    ( "kv_parked_retry_no_loop",
      Violates,
      S.kv_parked_retry_spec ~variant:`No_recheck_loop );
    ("watchdog_park", Verified, S.watchdog_park_spec ~variant:`Good ~scans:3);
    ( "watchdog_park_bit_only",
      Violates,
      S.watchdog_park_spec ~variant:`No_waiting_flag ~scans:3 );
    ("spillover", Verified, S.spillover_spec ~variant:`Good);
    ( "spillover_no_sweep",
      Violates,
      S.spillover_spec ~variant:`No_final_sweep );
    ("inject_queue", Verified, S.inject_queue_spec ~variant:`Good ~thief_pops:2);
    ( "inject_queue_no_cas",
      Violates,
      S.inject_queue_spec ~variant:`No_head_cas ~thief_pops:2 );
  ]

let () =
  let budget = ref 500_000 in
  let steps = ref 400 in
  let out = ref "mcheck-report.json" in
  let violations_dir = ref "mcheck-violations" in
  Arg.parse
    [
      ("--budget", Arg.Set_int budget, "execution budget per spec (default 500000)");
      ("--steps", Arg.Set_int steps, "step bound per execution (default 400)");
      ("--out", Arg.Set_string out, "JSON report path");
      ( "--violations",
        Arg.Set_string violations_dir,
        "directory for violating-schedule artifacts" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "mcheck_run: exhaustive DPOR battery over the coordination specs";
  let failures = ref 0 in
  let rows =
    List.map
      (fun (name, expect, spec) ->
        let t0 = Unix.gettimeofday () in
        let result = M.explore ~max_executions:!budget ~max_steps:!steps spec in
        let dt = Unix.gettimeofday () -. t0 in
        let pass, detail =
          match (expect, result) with
          | Verified, M.Ok o when o.M.complete -> (true, "verified")
          | Verified, M.Ok _ -> (false, "incomplete: raise --budget/--steps")
          | Verified, M.Violation _ -> (false, "unexpected violation")
          | Violates, M.Violation _ -> (true, "violation exhibited")
          | Violates, M.Ok _ -> (false, "expected violation not found")
        in
        if not pass then incr failures;
        let counts, schedule =
          match result with
          | M.Ok o ->
            ( Printf.sprintf
                {|"executions":%d,"truncated":%d,"blocked":%d,"complete":%b|}
                o.M.executions o.M.truncated o.M.blocked o.M.complete,
              None )
          | M.Violation { schedule; message } ->
            ( Printf.sprintf {|"message":%S|} message,
              Some (String.concat ";" (List.map string_of_int schedule)) )
        in
        (match (result, schedule) with
        | M.Violation _, Some sched ->
          if not (Sys.file_exists !violations_dir) then
            Sys.mkdir !violations_dir 0o755;
          let oc = open_out (Filename.concat !violations_dir (name ^ ".schedule")) in
          Printf.fprintf oc "%s\n" sched;
          close_out oc
        | _ -> ());
        Printf.printf "%-32s %-28s %6.2fs%s\n%!" name
          (if pass then detail else "FAIL: " ^ detail)
          dt
          (match schedule with Some s -> "  [" ^ s ^ "]" | None -> "");
        Printf.sprintf {|{"spec":%S,"pass":%b,"detail":%S,%s%s}|} name pass detail
          counts
          (match schedule with
          | Some s -> Printf.sprintf {|,"schedule":%S|} s
          | None -> ""))
      battery
  in
  let oc = open_out !out in
  Printf.fprintf oc "[\n%s\n]\n" (String.concat ",\n" rows);
  close_out oc;
  Printf.printf "report: %s (%d/%d specs as expected)\n%!" !out
    (List.length battery - !failures)
    (List.length battery);
  if !failures > 0 then exit 1
