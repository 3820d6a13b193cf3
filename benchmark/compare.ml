(* compare.exe A.json B.json

   A and B each hold run records of the benchmark, one JSON object per
   line (the contents of artifacts/benchmark/<workload>.json, appended
   once per run).  For every workload of BENCHMARK.json and every metric
   both sides recorded it prints each side's median and quartiles, the
   share of pairs B wins, and the verdict of {!Verdict}, with the bound
   BENCHMARK.json gives the gated metrics (compiled in, see {!Spec}).
   Exits 1 when any metric regressed. *)

open Nowa_benchmark

let records path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Json.parse

(* (workload, metric) -> values, in file order. *)
let values path =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun record ->
      let w = Json.to_string (Json.member "workload" record) in
      List.iter
        (fun row ->
          let key = (w, Json.to_string (Json.member "metric" row)) in
          let v = Json.to_float (Json.member "value" row) in
          Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key)))
        (Json.to_list (Json.member "rows" record)))
    (records path);
  fun key -> Array.of_list (List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl key)))

let () =
  let a, b =
    match Sys.argv with
    | [| _; a; b |] -> (a, b)
    | _ ->
      prerr_endline "usage: compare.exe A.json B.json";
      exit 2
  in
  let va = values a and vb = values b in
  let regressed = ref false in
  let summary v =
    let q1, q2, q3 = Sample.quartiles v in
    Printf.sprintf "%.4g [%.4g, %.4g] n=%d" q2 q1 q3 (Array.length v)
  in
  let rows =
    List.concat_map
      (fun w ->
        List.filter_map
          (fun (m : Spec.metric) ->
            let xa = va (w, m.name) and xb = vb (w, m.name) in
            if Array.length xa = 0 || Array.length xb = 0 then None
            else begin
              let v = Verdict.decide ~higher:m.higher ~bound:m.bound xa xb in
              if v = Verdict.Regressed then regressed := true;
              Some
                [
                  w; m.name; m.unit; summary xa; summary xb;
                  Printf.sprintf "%.2f" (Verdict.win_fraction ~higher:m.higher xa xb);
                  Verdict.to_string v;
                ]
            end)
          Report.catalogue)
      Spec.workloads
  in
  Nowa_util.Table.print
    ~header:[ "workload"; "metric"; "unit"; "A median [q1, q3]"; "B median [q1, q3]"; "B wins"; "verdict" ]
    rows;
  exit (if !regressed then 1 else 0)
