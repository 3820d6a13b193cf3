(* Tests for the work-stealing deques: sequential semantics (LIFO bottom,
   FIFO top), model-based random testing, the ABP effective-capacity
   pathology, growth, on_commit contracts, and multi-domain stress. *)

open Nowa_deque

module Int_elt = struct
  type t = int

  let dummy = min_int
end

module Cl = Chase_lev.Make (Int_elt)
module The = The_queue.Make (Int_elt)
module Abp_q = Abp.Make (Int_elt)
module Locked = Locked_deque.Make (Int_elt)

let no_commit _ = ()

(* Generic test battery over the shared signature. *)
module Battery (Q : Ws_deque_intf.S with type elt = int) = struct
  let test_lifo () =
    let q = Q.create () in
    for i = 1 to 100 do
      Q.push_bottom q i
    done;
    Alcotest.(check int) "size" 100 (Q.size q);
    for i = 100 downto 1 do
      Alcotest.(check (option int)) "pop order" (Some i) (Q.pop_bottom q)
    done;
    Alcotest.(check (option int)) "empty" None (Q.pop_bottom q)

  let test_steal_fifo () =
    let q = Q.create () in
    for i = 1 to 50 do
      Q.push_bottom q i
    done;
    for i = 1 to 50 do
      Alcotest.(check (option int)) "steal order" (Some i) (Q.steal q ~on_commit:no_commit)
    done;
    Alcotest.(check (option int)) "empty" None (Q.steal q ~on_commit:no_commit)

  let test_mixed_ends () =
    let q = Q.create () in
    for i = 1 to 10 do
      Q.push_bottom q i
    done;
    Alcotest.(check (option int)) "steal oldest" (Some 1) (Q.steal q ~on_commit:no_commit);
    Alcotest.(check (option int)) "pop newest" (Some 10) (Q.pop_bottom q);
    Alcotest.(check (option int)) "steal next" (Some 2) (Q.steal q ~on_commit:no_commit);
    Alcotest.(check int) "size" 7 (Q.size q)

  let test_on_commit_exactly_once () =
    let q = Q.create () in
    Q.push_bottom q 7;
    let calls = ref [] in
    (match Q.steal q ~on_commit:(fun v -> calls := v :: !calls) with
    | Some 7 -> ()
    | _ -> Alcotest.fail "expected steal of 7");
    Alcotest.(check (list int)) "called once with element" [ 7 ] !calls;
    (match Q.steal q ~on_commit:(fun v -> calls := v :: !calls) with
    | None -> ()
    | Some _ -> Alcotest.fail "expected empty");
    Alcotest.(check (list int)) "not called on failure" [ 7 ] !calls

  let test_empty_transitions () =
    let q = Q.create () in
    Alcotest.(check (option int)) "pop empty" None (Q.pop_bottom q);
    Alcotest.(check (option int)) "steal empty" None (Q.steal q ~on_commit:no_commit);
    Q.push_bottom q 1;
    Alcotest.(check (option int)) "pop single" (Some 1) (Q.pop_bottom q);
    Q.push_bottom q 2;
    Alcotest.(check (option int)) "steal single" (Some 2) (Q.steal q ~on_commit:no_commit);
    Alcotest.(check int) "size zero" 0 (Q.size q)

  (* With [max] no larger than half the queue, every implementation must
     return exactly the oldest [max] elements in steal (FIFO) order —
     the lock-based deques because half rounds up past [max], the
     CAS-based ones because no steal fails sequentially. *)
  let test_steal_batch_prefix () =
    let q = Q.create () in
    Alcotest.(check (list int))
      "empty" []
      (Q.steal_batch q ~max:4 ~on_commit:no_commit);
    for i = 1 to 10 do
      Q.push_bottom q i
    done;
    let calls = ref [] in
    let got = Q.steal_batch q ~max:4 ~on_commit:(fun v -> calls := v :: !calls) in
    Alcotest.(check (list int)) "oldest prefix" [ 1; 2; 3; 4 ] got;
    Alcotest.(check (list int))
      "on_commit once per element, steal order" [ 1; 2; 3; 4 ]
      (List.rev !calls);
    Alcotest.(check (option int))
      "next steal continues" (Some 5)
      (Q.steal q ~on_commit:no_commit)

  (* Model-based sequential test: random op sequences checked against a
     plain list model (front = top/steal end, back = bottom). *)
  let prop_model =
    let open QCheck in
    Test.make ~name:(Q.name ^ " matches deque model") ~count:300
      (list (int_range 0 2))
      (fun ops ->
        let q = Q.create () in
        let model = ref [] (* oldest first *) in
        let next = ref 0 in
        List.for_all
          (fun op ->
            match op with
            | 0 ->
              incr next;
              (try
                 Q.push_bottom q !next;
                 model := !model @ [ !next ];
                 true
               with Ws_deque_intf.Full -> true)
            | 1 -> (
              let expected =
                match List.rev !model with
                | [] -> None
                | newest :: rest ->
                  model := List.rev rest;
                  Some newest
              in
              match (Q.pop_bottom q, expected) with
              | None, None -> true
              | Some a, Some b -> a = b
              | _ -> false)
            | _ -> (
              let expected =
                match !model with
                | [] -> None
                | oldest :: rest ->
                  model := rest;
                  Some oldest
              in
              match (Q.steal q ~on_commit:no_commit, expected) with
              | None, None -> true
              | Some a, Some b -> a = b
              | _ -> false))
          ops)

  (* One owner pushes/pops, several thieves steal concurrently; every
     pushed element must be consumed exactly once.  From a small
     [capacity] the owner grows the deque under the steals. *)
  let test_concurrent_accounting ~capacity () =
    let q = Q.create ~capacity () in
    let per_item = Array.make 20_000 0 in
    let stop = Atomic.make false in
    let record v = per_item.(v) <- per_item.(v) + 1 in
    let thief () =
      let mine = ref [] in
      while not (Atomic.get stop) do
        match Q.steal q ~on_commit:no_commit with
        | Some v -> mine := v :: !mine
        | None -> Domain.cpu_relax ()
      done;
      (* Final drain so nothing is stranded. *)
      let rec drain () =
        match Q.steal q ~on_commit:no_commit with
        | Some v ->
          mine := v :: !mine;
          drain ()
        | None -> ()
      in
      drain ();
      !mine
    in
    let thieves = List.init 3 (fun _ -> Domain.spawn thief) in
    let owner_got = ref [] in
    for i = 0 to 19_999 do
      Q.push_bottom q i;
      if i mod 3 = 0 then
        match Q.pop_bottom q with
        | Some v -> owner_got := v :: !owner_got
        | None -> ()
    done;
    Atomic.set stop true;
    let stolen = List.concat_map Domain.join thieves in
    List.iter record stolen;
    List.iter record !owner_got;
    let rec drain () =
      match Q.pop_bottom q with
      | Some v ->
        record v;
        drain ()
      | None -> ()
    in
    drain ();
    Array.iteri
      (fun i c ->
        if c <> 1 then
          Alcotest.failf "%s: element %d consumed %d times" Q.name i c)
      per_item

  let cases =
    [
      Alcotest.test_case (Q.name ^ " lifo bottom") `Quick test_lifo;
      Alcotest.test_case (Q.name ^ " fifo top") `Quick test_steal_fifo;
      Alcotest.test_case (Q.name ^ " mixed ends") `Quick test_mixed_ends;
      Alcotest.test_case (Q.name ^ " on_commit") `Quick test_on_commit_exactly_once;
      Alcotest.test_case (Q.name ^ " empty transitions") `Quick test_empty_transitions;
      Alcotest.test_case (Q.name ^ " steal_batch prefix") `Quick test_steal_batch_prefix;
      QCheck_alcotest.to_alcotest prop_model;
      Alcotest.test_case (Q.name ^ " concurrent accounting") `Slow
        (test_concurrent_accounting ~capacity:(1 lsl 16));
    ]

  (* Only for the deques that grow: ABP's capacity is fixed. *)
  let growing_accounting =
    Alcotest.test_case (Q.name ^ " concurrent accounting from 8 slots") `Slow
      (test_concurrent_accounting ~capacity:8)
end

module Cl_battery = Battery (Cl)
module The_battery = Battery (The)
module Abp_battery = Battery (Abp_q)
module Locked_battery = Battery (Locked)

(* -- implementation-specific behaviours ------------------------------ *)

let test_cl_growth () =
  let q = Cl.create ~capacity:8 () in
  for i = 1 to 10_000 do
    Cl.push_bottom q i
  done;
  Alcotest.(check int) "grew" 10_000 (Cl.size q);
  for i = 10_000 downto 1 do
    Alcotest.(check (option int)) "intact after growth" (Some i) (Cl.pop_bottom q)
  done

let test_the_growth () =
  let q = The.create ~capacity:8 () in
  for i = 1 to 5_000 do
    The.push_bottom q i
  done;
  for i = 1 to 5_000 do
    Alcotest.(check (option int)) "intact" (Some i) (The.steal q ~on_commit:no_commit)
  done

(* The ABP queue's effective capacity shrinks as thieves advance top
   without freeing slots — the Section II-D pathology. *)
let test_abp_effective_capacity () =
  let q = Abp_q.create ~capacity:8 () in
  for i = 1 to 8 do
    Abp_q.push_bottom q i
  done;
  Alcotest.check_raises "full at capacity" Ws_deque_intf.Full (fun () ->
      Abp_q.push_bottom q 9);
  (* Steal half: logical size 4, but pushes still fail. *)
  for _ = 1 to 4 do
    ignore (Abp_q.steal q ~on_commit:no_commit)
  done;
  Alcotest.(check int) "logical size" 4 (Abp_q.size q);
  Alcotest.check_raises "still full (reduced effective capacity)"
    Ws_deque_intf.Full (fun () -> Abp_q.push_bottom q 9);
  (* Draining through the bottom resets the indices and restores space. *)
  for _ = 1 to 4 do
    ignore (Abp_q.pop_bottom q)
  done;
  Alcotest.(check (option int)) "now empty" None (Abp_q.pop_bottom q);
  Abp_q.push_bottom q 42;
  Alcotest.(check (option int)) "reset restored capacity" (Some 42) (Abp_q.pop_bottom q)

let test_abp_tag_prevents_stale_steal () =
  (* After a reset, a steal must not succeed on stale state. *)
  let q = Abp_q.create ~capacity:4 () in
  Abp_q.push_bottom q 1;
  Alcotest.(check (option int)) "pop last" (Some 1) (Abp_q.pop_bottom q);
  Alcotest.(check (option int)) "steal empty after reset" None
    (Abp_q.steal q ~on_commit:no_commit);
  Abp_q.push_bottom q 2;
  Alcotest.(check (option int)) "fresh element" (Some 2)
    (Abp_q.steal q ~on_commit:no_commit)

(* Batched-steal width: the lock-based deques cap a batch at half the
   queue (leaving the owner its share), the CAS-based ones take up to
   [max] independent steals. *)
let test_locked_steal_half () =
  let q = Locked.create () in
  for i = 1 to 10 do
    Locked.push_bottom q i
  done;
  Alcotest.(check (list int))
    "half under one lock" [ 1; 2; 3; 4; 5 ]
    (Locked.steal_batch q ~max:100 ~on_commit:no_commit);
  Alcotest.(check int) "owner keeps the rest" 5 (Locked.size q)

let test_the_steal_half () =
  let q = The.create () in
  for i = 1 to 9 do
    The.push_bottom q i
  done;
  Alcotest.(check (list int))
    "half rounds up" [ 1; 2; 3; 4; 5 ]
    (The.steal_batch q ~max:100 ~on_commit:no_commit);
  Alcotest.(check int) "owner keeps the rest" 4 (The.size q)

let test_cl_steal_batch_to_empty () =
  let q = Cl.create () in
  for i = 1 to 10 do
    Cl.push_bottom q i
  done;
  Alcotest.(check (list int))
    "takes up to max" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (Cl.steal_batch q ~max:100 ~on_commit:no_commit);
  Alcotest.(check (list int))
    "then empty" []
    (Cl.steal_batch q ~max:4 ~on_commit:no_commit)

(* -- central queue ---------------------------------------------------- *)

let test_central_queue_fifo () =
  let q = Central_queue.create () in
  Alcotest.(check (option int)) "empty" None (Central_queue.pop q);
  for i = 1 to 10 do
    Central_queue.push q i
  done;
  Alcotest.(check int) "size" 10 (Central_queue.size q);
  for i = 1 to 10 do
    Alcotest.(check (option int)) "fifo" (Some i) (Central_queue.pop q)
  done

let test_central_pop_batch () =
  let q = Central_queue.create () in
  Alcotest.(check (list int)) "empty" [] (Central_queue.pop_batch q ~max:4);
  for i = 1 to 10 do
    Central_queue.push q i
  done;
  Alcotest.(check (list int)) "fifo prefix" [ 1; 2; 3; 4 ]
    (Central_queue.pop_batch q ~max:4);
  Alcotest.(check (option int)) "single pop continues" (Some 5)
    (Central_queue.pop q);
  Alcotest.(check (list int)) "drains" [ 6; 7; 8; 9; 10 ]
    (Central_queue.pop_batch q ~max:100);
  Alcotest.(check int) "size zero" 0 (Central_queue.size q)

let test_central_queue_concurrent () =
  let q = Central_queue.create () in
  let producers =
    List.init 2 (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to 4_999 do
              Central_queue.push q ((p * 5_000) + i)
            done))
  in
  let seen = Array.make 10_000 0 in
  let consumed = ref 0 in
  while !consumed < 10_000 do
    match Central_queue.pop q with
    | Some v ->
      seen.(v) <- seen.(v) + 1;
      incr consumed
    | None -> Domain.cpu_relax ()
  done;
  List.iter Domain.join producers;
  Array.iteri
    (fun i c -> if c <> 1 then Alcotest.failf "element %d seen %d times" i c)
    seen

let () =
  Alcotest.run "nowa_deque"
    [
      ( "chase-lev",
        Cl_battery.cases
        @ [
            Cl_battery.growing_accounting;
            Alcotest.test_case "growth" `Quick test_cl_growth;
            Alcotest.test_case "steal_batch to empty" `Quick
              test_cl_steal_batch_to_empty;
          ] );
      ( "the",
        The_battery.cases
        @ [
            The_battery.growing_accounting;
            Alcotest.test_case "growth" `Quick test_the_growth;
            Alcotest.test_case "steal_batch half" `Quick test_the_steal_half;
          ] );
      ( "abp",
        Abp_battery.cases
        @ [
            Alcotest.test_case "effective capacity pathology" `Quick
              test_abp_effective_capacity;
            Alcotest.test_case "tag prevents stale steal" `Quick
              test_abp_tag_prevents_stale_steal;
          ] );
      ( "locked",
        Locked_battery.cases
        @ [
            Locked_battery.growing_accounting;
            Alcotest.test_case "steal_batch half" `Quick test_locked_steal_half;
          ]
      );
      ( "central",
        [
          Alcotest.test_case "fifo" `Quick test_central_queue_fifo;
          Alcotest.test_case "pop_batch" `Quick test_central_pop_batch;
          Alcotest.test_case "concurrent" `Slow test_central_queue_concurrent;
        ] );
    ]
