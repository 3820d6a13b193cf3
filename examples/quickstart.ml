(* Quickstart: the spawn/sync programming model on the default (wait-free)
   Nowa runtime.

     dune exec examples/quickstart.exe *)

(* Listing 1 of the paper, in OCaml: a spawning function.  [spawn] only
   expresses the *potential* for parallelism; the runtime decides. *)
let rec fib n =
  if n < 2 then n
  else
    Nowa.scope (fun sc ->
        let a = Nowa.spawn sc (fun () -> fib (n - 1)) in
        let b = fib (n - 2) in
        Nowa.sync sc;
        Nowa.get a + b)

(* Data-parallel helpers are built on the same primitives. *)
let dot_product xs ys =
  Nowa.parallel_reduce ~grain:1024 0 (Array.length xs)
    ~map:(fun i -> xs.(i) *. ys.(i))
    ~combine:( +. ) ~init:0.0

let () =
  let n = 30 in
  let result, elapsed_metrics =
    Nowa.run (fun () ->
        let f = fib n in
        let xs = Array.init 100_000 (fun i -> float_of_int i) in
        let ys = Array.init 100_000 (fun _ -> 0.5) in
        let d = dot_product xs ys in
        (f, d))
  in
  Printf.printf "fib %d = %d\n" n result;
  Printf.printf "dot product = %.1f\n" elapsed_metrics;
  (match Nowa.last_metrics () with
  | Some m ->
    Printf.printf
      "runtime: %d workers, %d spawn points, %d steals, %.4f s\n"
      (Array.length m.Nowa.Metrics.workers)
      (Nowa.Metrics.total m Nowa.Metrics.Spawns)
      (Nowa.Metrics.total m Nowa.Metrics.Steals)
      m.Nowa.Metrics.elapsed_s
  | None -> ());
  (* The same program runs unchanged on any baseline preset. *)
  let module Fibril = Nowa.Presets.Fibril in
  let module FibK = Nowa_kernels.Fib.Make (Fibril) in
  let r = Fibril.run (fun () -> FibK.run 25) in
  Printf.printf "fib 25 on the lock-based Fibril baseline = %d\n" r
