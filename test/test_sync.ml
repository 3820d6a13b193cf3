(* Tests for nowa_sync: the wait-free counter's α/ω algebra (Equations
   1-5 of the paper), the lock-based counter's count protocol, unique
   zero-observation under concurrency, and spinlock mutual exclusion. *)

open Nowa_sync

(* Battery shared by both counter implementations: drive the protocol the
   scheduler engine uses and check that exactly one participant observes
   the sync condition. *)
module Counter_battery (C : Counter_intf.JOIN_COUNTER) = struct
  let test_no_fork_sync_is_trivial () =
    let c = C.create () in
    Alcotest.(check bool) "not forked" false (C.forked c);
    Alcotest.(check int) "no pending" 0 (C.pending_hint c)

  let test_single_steal_child_first () =
    let c = C.create () in
    C.note_steal c;
    C.note_resume c;
    Alcotest.(check bool) "forked" true (C.forked c);
    Alcotest.(check bool) "child join before sync can't win" false (C.child_joined c);
    Alcotest.(check bool) "main observes the sync condition" true (C.reach_sync c);
    C.reset c

  let test_single_steal_sync_first () =
    let c = C.create () in
    C.note_steal c;
    C.note_resume c;
    Alcotest.(check bool) "sync suspends" false (C.reach_sync c);
    Alcotest.(check bool) "last child wins" true (C.child_joined c);
    C.reset c

  let test_many_steals_interleaved () =
    let c = C.create () in
    for _ = 1 to 5 do
      C.note_steal c;
      C.note_resume c
    done;
    Alcotest.(check int) "pending hint" 5 (C.pending_hint c);
    (* Two children join early. *)
    Alcotest.(check bool) "early join 1" false (C.child_joined c);
    Alcotest.(check bool) "early join 2" false (C.child_joined c);
    Alcotest.(check bool) "sync suspends (3 outstanding)" false (C.reach_sync c);
    Alcotest.(check bool) "join 3" false (C.child_joined c);
    Alcotest.(check bool) "join 4" false (C.child_joined c);
    Alcotest.(check bool) "last join resumes" true (C.child_joined c);
    C.reset c

  let test_reuse_after_reset () =
    let c = C.create () in
    C.note_steal c;
    C.note_resume c;
    Alcotest.(check bool) "phase 1 child joins" false (C.child_joined c);
    Alcotest.(check bool) "phase 1 done" true (C.reach_sync c);
    C.reset c;
    Alcotest.(check bool) "fresh phase not forked" false (C.forked c);
    C.note_steal c;
    C.note_resume c;
    Alcotest.(check bool) "phase 2 suspends" false (C.reach_sync c);
    Alcotest.(check bool) "phase 2 resumed by child" true (C.child_joined c);
    C.reset c

  (* Randomised protocol driving: for a random number of forked strands
     and a random interleaving position of the explicit sync, exactly one
     protocol step must observe the sync condition. *)
  let prop_unique_zero_observer =
    QCheck.Test.make ~name:"unique sync-condition observer" ~count:300
      QCheck.(pair (int_range 1 20) (int_range 0 20))
      (fun (forks, sync_after) ->
        let sync_after = min sync_after forks in
        let c = C.create () in
        for _ = 1 to forks do
          C.note_steal c;
          C.note_resume c
        done;
        let observations = ref 0 in
        for _ = 1 to sync_after do
          if C.child_joined c then incr observations
        done;
        if C.reach_sync c then incr observations;
        for _ = 1 to forks - sync_after do
          if C.child_joined c then incr observations
        done;
        C.reset c;
        !observations = 1)

  (* Concurrent stress: [forks] joiner domains race the main strand's
     reach_sync; exactly one party must observe the condition, and no one
     may observe it before all parties have started (the Figure 6 hazard:
     a premature zero). *)
  let test_concurrent_unique_observer () =
    for round = 1 to 50 do
      let forks = 1 + (round mod 4) in
      let c = C.create () in
      for _ = 1 to forks do
        C.note_steal c;
        C.note_resume c
      done;
      let winners = Atomic.make 0 in
      let joiners =
        List.init forks (fun _ ->
            Domain.spawn (fun () ->
                if C.child_joined c then Atomic.incr winners))
      in
      if C.reach_sync c then Atomic.incr winners;
      List.iter Domain.join joiners;
      Alcotest.(check int) "exactly one winner" 1 (Atomic.get winners);
      C.reset c
    done

  let cases name =
    [
      Alcotest.test_case (name ^ " trivial sync") `Quick test_no_fork_sync_is_trivial;
      Alcotest.test_case (name ^ " child first") `Quick test_single_steal_child_first;
      Alcotest.test_case (name ^ " sync first") `Quick test_single_steal_sync_first;
      Alcotest.test_case (name ^ " interleaved") `Quick test_many_steals_interleaved;
      Alcotest.test_case (name ^ " reuse") `Quick test_reuse_after_reset;
      QCheck_alcotest.to_alcotest prop_unique_zero_observer;
      Alcotest.test_case (name ^ " concurrent unique observer") `Slow
        test_concurrent_unique_observer;
    ]
end

module Wf_battery = Counter_battery (Wait_free_counter)
module Lk_battery = Counter_battery (Lock_counter)

(* Wait-free specifics: the Imax initialisation (Section IV-B). *)
let test_wait_free_imax () =
  Alcotest.(check int) "Imax is max_int" max_int Wait_free_counter.i_max;
  let c = Wait_free_counter.create () in
  (* ω increments during phase one never make the counter observable. *)
  Wait_free_counter.note_resume c;
  Wait_free_counter.note_resume c;
  for _ = 1 to 2 do
    Alcotest.(check bool) "huge counter shields phase 1" false
      (Wait_free_counter.child_joined c)
  done;
  (* Equation 5: N_r = N_r' − (Imax − α) = 0 here, so sync proceeds. *)
  Alcotest.(check bool) "restore yields true N_r" true
    (Wait_free_counter.reach_sync c)

(* The decomposition N_r = α − ω (Equation 1) read through active. *)
let test_wait_free_active () =
  let c = Wait_free_counter.create () in
  for _ = 1 to 3 do
    Wait_free_counter.note_resume c
  done;
  ignore (Wait_free_counter.child_joined c);
  Alcotest.(check int) "alpha - omega" 2 (Wait_free_counter.pending_hint c)

(* -- Spinlock --------------------------------------------------------- *)

let test_spinlock_mutual_exclusion () =
  let l = Spinlock.create ~spins:(Nowa_obs.Histogram.create "test_spins") () in
  let counter = ref 0 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Spinlock.acquire l;
              counter := !counter + 1;
              Spinlock.release l
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost updates" 40_000 !counter

let () =
  Alcotest.run "nowa_sync"
    [
      ("wait-free counter", Wf_battery.cases "wf");
      ( "wait-free specifics",
        [
          Alcotest.test_case "Imax shielding" `Quick test_wait_free_imax;
          Alcotest.test_case "alpha/omega decomposition" `Quick test_wait_free_active;
        ] );
      ("lock counter", Lk_battery.cases "lk");
      ( "spinlock",
        [
          Alcotest.test_case "mutual exclusion" `Slow test_spinlock_mutual_exclusion;
        ] );
    ]
