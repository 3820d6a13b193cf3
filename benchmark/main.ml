(* The repository benchmark.

     main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
              [--scale full|smoke]

   With --workload, runs that workload in this process and prints one row
   per metric ("workload metric value unit n=<samples>"), writes the same
   rows to artifacts/benchmark/<workload>[.traced].json, and ends with a
   one-line JSON result.  Without it, runs every workload, each in its
   own process.  Exits non-zero when any output check fails. *)

open Nowa_benchmark

let workloads =
  [
    ("fj-fine", Fj.run "fib");
    ("fj-coarse", Fj.run "matmul");
    ("kv-point", Serve.run Serve.Point);
    ("kv-scan", Serve.run Serve.Scan);
    ("pipeline", Pipeline.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
     [--scale full|smoke]";
  prerr_endline ("workloads: " ^ String.concat " " (List.map fst workloads));
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 15. in
  let traced = ref false and scale = ref Common.Full in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      if not (List.mem_assoc w workloads) then usage ();
      workload := Some w;
      parse rest
    | "--seed" :: n :: rest ->
      seed := (match int_of_string_opt n with Some n -> n | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      seconds :=
        (match float_of_string_opt s with Some s when s >= 0. -> s | _ -> usage ());
      parse rest
    | "--trace" :: t :: rest ->
      traced := (match t with "0" -> false | "1" -> true | _ -> usage ());
      parse rest
    | "--scale" :: s :: rest ->
      scale :=
        (match s with "full" -> Common.Full | "smoke" -> Common.Smoke | _ -> usage ());
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None ->
    (* Every workload in its own process, one after the other. *)
    let failures =
      List.filter
        (fun (w, _) ->
          let args =
            Array.append [| Sys.executable_name; "--workload"; w |]
              (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
          in
          let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
          match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> false | _ -> true)
        workloads
    in
    exit (if failures = [] then 0 else 1)
  | Some w ->
    (* A lost task that leaves a join waiting forever kills the run
       (SIGALRM's default action) instead of hanging it. *)
    ignore (Unix.alarm (int_of_float !seconds + 150));
    let r = Report.create ~workload:w ~seed:!seed ~traced:!traced in
    (List.assoc w workloads) ~scale:!scale ~seed:!seed ~seconds:!seconds ~traced:!traced r;
    let shown = Report.mode_kind r in
    let rows =
      List.filter
        (fun (row : Report.row) -> row.metric.kind = shown || row.metric.kind = Spec.Diag)
        (Report.rows r)
    in
    List.iter (fun row -> print_endline (Report.line r row)) rows;
    Common.mkdir_p Common.artifacts_dir;
    let file = Filename.concat Common.artifacts_dir (w ^ (if !traced then ".traced.json" else ".json")) in
    Out_channel.with_open_bin file (fun oc ->
        output_string oc (Report.record_json r);
        output_char oc '\n');
    let missing = Report.missing r in
    List.iter
      (fun (m : Spec.metric) -> Printf.eprintf "%s: metric %s not measured\n" w m.name)
      missing;
    if missing <> [] then exit 1;
    print_endline (Report.result_json r);
    if r.failed > 0 then exit 1
