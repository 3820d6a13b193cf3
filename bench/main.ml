(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation (Section V).

     dune exec bench/main.exe                      # everything, quick scale
     dune exec bench/main.exe -- fig7              # one experiment
     dune exec bench/main.exe -- fig1 --sim-size medium --runs 10 *)

open Cmdliner

let parse_int_list s =
  s |> String.split_on_char ',' |> List.map String.trim
  |> List.filter (fun x -> x <> "")
  |> List.map int_of_string

let main experiments runs real_workers sim_workers real_size sim_size =
  let defaults = Harness.default_options () in
  let opts =
    {
      Harness.runs;
      real_workers =
        (match real_workers with
        | Some s -> parse_int_list s
        | None -> defaults.Harness.real_workers);
      sim_workers =
        (match sim_workers with
        | Some s -> parse_int_list s
        | None -> defaults.Harness.sim_workers);
      real_size = Harness.size_of_string real_size;
      sim_size = Option.map Harness.size_of_string sim_size;
    }
  in
  Printf.printf
    "Nowa reproduction harness: host cores=%d, real workers=%s (size %s), \
     sim workers=%s (size %s), %d runs per cell\n"
    (Nowa_util.Cpu.available_cores ())
    (String.concat "," (List.map string_of_int opts.Harness.real_workers))
    real_size
    (String.concat "," (List.map string_of_int opts.Harness.sim_workers))
    (Option.value ~default:"per-benchmark profile" sim_size)
    runs;
  let experiments = if experiments = [] then [ "all" ] else experiments in
  List.iter
    (fun name ->
      match List.assoc_opt name Experiments.by_name with
      | Some f -> f ~opts ()
      | None ->
        Printf.eprintf "unknown experiment %S; one of: %s\n" name
          (String.concat ", " (List.map fst Experiments.by_name));
        exit 1)
    experiments

let cmd =
  let experiments =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"table1 fig1 fig7 fig8 table2 fig9 fig10 table3 ablation traces scalability causal idle hotpath all")
  in
  let runs = Arg.(value & opt int 3 & info [ "runs" ] ~docv:"N" ~doc:"Timed repetitions per real-mode cell.") in
  let real_workers =
    Arg.(value & opt (some string) None & info [ "real-workers" ] ~docv:"LIST" ~doc:"Comma-separated worker counts for real runs.")
  in
  let sim_workers =
    Arg.(value & opt (some string) None & info [ "sim-workers" ] ~docv:"LIST" ~doc:"Comma-separated worker counts for simulated runs.")
  in
  let real_size =
    Arg.(value & opt string "small" & info [ "real-size" ] ~docv:"SIZE" ~doc:"Input scale for real runs (test|small|medium|large).")
  in
  let sim_size =
    Arg.(value & opt (some string) None & info [ "sim-size" ] ~docv:"SIZE" ~doc:"Force one input scale for recorded DAGs (default: per-benchmark profile).")
  in
  Cmd.v
    (Cmd.info "nowa-bench" ~doc:"Regenerate the tables and figures of the Nowa paper")
    Term.(
      const main $ experiments $ runs $ real_workers $ sim_workers
      $ real_size $ sim_size)

let () = exit (Cmd.eval cmd)
