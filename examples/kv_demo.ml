(* kv_demo: the sharded in-memory KV service driven by an open-loop
   YCSB workload on the default (wait-free) Nowa runtime.

     dune exec examples/kv_demo.exe

   Two parts: first the KV store used directly — every request a
   runtime task via [spawn_unit], a cross-shard write claiming the
   shards it touches in ascending order — then the full load generator
   with latency percentiles for a small YCSB-A run. *)

module Kv = Nowa_server.Kv
module Workload = Nowa_server.Workload

let () =
  (* Part 1: the store itself, requests as fire-and-forget tasks. *)
  let kv = Kv.create ~shards:8 ~buckets_per_shard:32 () in
  Nowa.run (fun () ->
      Nowa.scope (fun sc ->
          for k = 0 to 999 do
            Nowa.spawn_unit sc (fun () -> ignore (Kv.exec kv (Kv.Put (k, k * k))))
          done;
          Nowa.sync sc;
          (* A cross-shard write: the request claims each shard's
             combining flag in ascending order, waiting behind a held
             one, and applies all three keys atomically. *)
          Nowa.spawn_unit sc (fun () ->
              ignore (Kv.exec kv (Kv.Multi_put [| (1, -1); (500, -500); (999, -999) |])));
          Nowa.sync sc));
  Printf.printf "store: %d keys over %d shards, %d waited claims, %d dropped\n"
    (Kv.size kv) (Kv.shards kv) (Kv.handoffs kv) (Kv.dropped kv);
  (match Kv.exec kv (Kv.Get 500) with
  | Kv.Hit v -> Printf.printf "get 500 -> %d (transaction applied)\n" v
  | _ -> Printf.printf "get 500 -> miss?!\n");

  (* Part 2: the open-loop load harness — exponential arrivals at a
     fixed offered rate, zipf-skewed keys, latency measured from the
     scheduled arrival time (no coordinated omission). *)
  let module L = Nowa_server.Loadgen.Make (Nowa.Presets.Nowa) in
  let spec =
    {
      (Workload.default_spec ~mix:(Option.get (Workload.find_mix "A"))) with
      Workload.records = 1_000;
      rate = 20_000.0;
      warmup = 200;
      requests = 2_000;
    }
  in
  let report = L.run spec in
  Nowa_server.Loadgen.pp_report report
