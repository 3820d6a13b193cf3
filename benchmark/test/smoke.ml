(* Benchmark smoke test: every workload at --scale smoke prints every
   metric BENCHMARK.json declares, with its unit, and fails no check;
   plus the KV provenance oracle and the compare verdict rules on
   synthetic inputs. *)

open Nowa_benchmark

let run_main args =
  let argv = Array.of_list ("../main.exe" :: args) in
  let ic = Unix.open_process_args_in "../main.exe" argv in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  (String.split_on_char '\n' (String.trim out), status)

let workload_case traced w =
  let name = Printf.sprintf "%s %s" w (if traced then "traced" else "untraced") in
  Alcotest.test_case name `Quick (fun () ->
      let lines, status =
        run_main
          [ "--workload"; w; "--scale"; "smoke"; "--seconds"; "0.1"; "--seed"; "7";
            "--trace"; (if traced then "1" else "0") ]
      in
      Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
      let rows = List.map (String.split_on_char ' ') lines in
      let printed name =
        List.find_map
          (function
            | [ w'; n; v; u; count ]
              when String.equal w' w && String.equal n name
                   && String.starts_with ~prefix:"n=" count ->
              Some (float_of_string v, u)
            | _ -> None)
          rows
      in
      let kind = if traced then Spec.Layer else Spec.E2e in
      let declared = List.filter (fun (m : Spec.metric) -> m.kind = kind) Spec.metrics in
      List.iter
        (fun (m : Spec.metric) ->
          match printed m.name with
          | Some (_, u) -> Alcotest.(check string) (m.name ^ " unit") m.unit u
          | None -> Alcotest.failf "%s: metric %s not printed" w m.name)
        declared;
      (match printed "error_frac" with
      | Some (v, _) -> Alcotest.(check (float 0.)) "error_frac" 0. v
      | None -> Alcotest.fail "error_frac not printed");
      let result = Json.parse (List.nth lines (List.length lines - 1)) in
      Alcotest.(check bool) "correct" true (Json.member "correct" result = Json.Bool true);
      let keys =
        match Json.member "metrics" result with
        | Json.Obj kvs -> List.sort compare (List.map fst kvs)
        | _ -> []
      in
      Alcotest.(check (list string))
        "result metrics" (List.sort compare (List.map (fun (m : Spec.metric) -> m.name) declared))
        keys)

module Kv = Nowa_server.Kv

let provenance () =
  let v key writer = Oracle.value ~key ~writer in
  (* Request 1 writes key 5; request 2 reads it; keys 0-9 preloaded. *)
  let ops = [| Kv.Put (5, v 5 1); Kv.Get 5; Kv.Put (12, v 12 3) |] in
  let ok op o = Oracle.kv_outcome ~records:10 ops op o in
  let check msg expected op o = Alcotest.(check bool) msg expected (ok op o) in
  check "preload value" true (Kv.Get 5) (Kv.Hit (v 5 0));
  check "scheduled write" true (Kv.Get 5) (Kv.Hit (v 5 1));
  check "inserted key" true (Kv.Get 12) (Kv.Hit (v 12 3));
  check "not yet inserted" true (Kv.Get 12) Kv.Miss;
  check "value of another key" false (Kv.Get 5) (Kv.Hit (v 6 0));
  check "writer is a read" false (Kv.Get 5) (Kv.Hit (v 5 2));
  check "writer wrote another value" false (Kv.Get 12) (Kv.Hit (v 12 1));
  check "writer out of range" false (Kv.Get 5) (Kv.Hit (v 5 99));
  check "preloaded key missing" false (Kv.Get 5) Kv.Miss;
  check "multi-get" true (Kv.Multi_get [| 5; 12 |]) (Kv.Many [| Some (v 5 1); None |]);
  check "multi-get corrupted" false (Kv.Multi_get [| 5; 12 |])
    (Kv.Many [| Some (v 5 1); Some (v 5 1) |]);
  check "multi-get short" false (Kv.Multi_get [| 5; 12 |]) (Kv.Many [| Some (v 5 1) |]);
  check "dropped" false (Kv.Get 5) Kv.Dropped;
  check "never completed" false (Kv.Get 5) Kv.Pending

let verdicts () =
  let q1, q2, q3 = Sample.quartiles [| 4.; 1.; 3.; 2. |] in
  Alcotest.(check (list (float 1e-12))) "python quartiles" [ 1.25; 2.5; 3.75 ] [ q1; q2; q3 ];
  let a = Array.init 10 (fun i -> 100. +. float_of_int i) in
  let shift d = Array.map (fun x -> x +. d) a in
  let decide ?(higher = false) ?(bound = Some 0.1) b =
    Verdict.to_string (Verdict.decide ~higher ~bound a b)
  in
  let check msg expected got = Alcotest.(check string) msg expected got in
  check "faster" "improved" (decide (shift (-20.)));
  check "slower beyond bound" "regressed" (decide (shift 20.));
  check "slightly slower" "within bound" (decide (shift 1.));
  check "higher is better" "improved" (decide ~higher:true (shift 20.));
  check "no bound, no clear change" "unresolved" (decide ~bound:None (shift 1.));
  check "no bound, clearly worse" "regressed" (decide ~bound:None (shift 20.));
  let wide = [| 50.; 150.; 80.; 120.; 60.; 140.; 90.; 110.; 70.; 130. |] in
  check "spread wider than bound" "unresolved"
    (Verdict.to_string (Verdict.decide ~higher:false ~bound:(Some 0.1) wide (Array.map (fun x -> x +. 2.) wide)));
  Alcotest.(check (float 1e-12)) "win fraction" 0.5
    (Verdict.win_fraction ~higher:true [| 1.; 1.; 1.; 1. |] [| 2.; 0.; 1.; 3. |])

let () =
  let workloads = Spec.workloads in
  Alcotest.run "benchmark"
    [
      ("untraced", List.map (workload_case false) workloads);
      ("traced", List.map (workload_case true) workloads);
      ("oracle", [ Alcotest.test_case "kv provenance" `Quick provenance ]);
      ("compare", [ Alcotest.test_case "verdict rules" `Quick verdicts ]);
    ]
