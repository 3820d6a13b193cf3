(* The paper's Figure 1 benchmark as an application: count the placements
   of n non-attacking queens, on a selectable runtime preset, and report
   the speedup over the serial elision.

     dune exec examples/nqueens_app.exe -- -n 11 --runtime nowa --workers 4 *)

let run_once n (module R : Nowa.RUNTIME) workers =
  let module Q = Nowa_kernels.Nqueens.Make (R) in
  let conf = Nowa.Config.with_workers workers in
  let t0 = Unix.gettimeofday () in
  let count = R.run ~conf (fun () -> Q.run n) in
  (count, Unix.gettimeofday () -. t0)

let serial_time n =
  let module S = Nowa_runtime.Serial_runtime in
  let module Q = Nowa_kernels.Nqueens.Make (S) in
  let t0 = Unix.gettimeofday () in
  let count = S.run (fun () -> Q.run n) in
  (count, Unix.gettimeofday () -. t0)

let main n runtime workers =
  let (module R : Nowa.RUNTIME) =
    match Nowa.Presets.find runtime with
    | r -> r
    | exception Not_found ->
      Printf.eprintf "unknown runtime %S; available: %s\n" runtime
        (String.concat ", "
           (List.map (fun (module R : Nowa.RUNTIME) -> R.name) Nowa.Presets.all));
      exit 1
  in
  let serial_count, ts = serial_time n in
  let count, tp = run_once n (module R) workers in
  Printf.printf "nqueens(%d) = %d solutions\n" n count;
  if count <> serial_count then begin
    Printf.eprintf "BUG: parallel result %d disagrees with serial %d\n" count
      serial_count;
    exit 1
  end;
  Printf.printf "serial elision: %.4f s\n" ts;
  Printf.printf "%s with %d workers: %.4f s (speedup %.2f)\n" R.name workers tp
    (ts /. tp);
  match R.last_metrics () with
  | Some m ->
    Printf.printf "spawns=%d steals=%d steal-attempts=%d suspensions=%d\n"
      (Nowa.Metrics.total m Nowa.Metrics.Spawns)
      (Nowa.Metrics.total m Nowa.Metrics.Steals)
      (Nowa.Metrics.total m Nowa.Metrics.Steal_attempts)
      (Nowa.Metrics.total m Nowa.Metrics.Suspensions)
  | None -> ()

open Cmdliner

let n_arg =
  Arg.(value & opt int 10 & info [ "n" ] ~docv:"N" ~doc:"Board size.")

let runtime_arg =
  Arg.(
    value & opt string "nowa"
    & info [ "runtime"; "r" ] ~docv:"NAME" ~doc:"Runtime preset (nowa, fibril, ...).")

let workers_arg =
  Arg.(
    value
    & opt int (Nowa_util.Cpu.default_workers ())
    & info [ "workers"; "w" ] ~docv:"W" ~doc:"Worker count.")

let cmd =
  Cmd.v
    (Cmd.info "nqueens_app" ~doc:"Count n-queens placements on a Nowa runtime")
    Term.(const main $ n_arg $ runtime_arg $ workers_arg)

let () = exit (Cmd.eval cmd)
