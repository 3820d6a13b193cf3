(* Tests for the serving layer: KV store semantics, flat combining and
   ordered multi-key claims under real concurrency (multi-domain stress
   with log replay), linearizability smoke tests across the three
   engine families, and the open-loop load generator. *)

module Kv = Nowa_server.Kv
module Workload = Nowa_server.Workload
module Sm = Nowa_util.Splitmix

(* -- basic single-key semantics ------------------------------------------- *)

let test_kv_basics () =
  let kv = Kv.create ~shards:4 ~buckets_per_shard:8 () in
  Alcotest.(check bool) "miss on empty" true (Kv.exec kv (Kv.Get 1) = Kv.Miss);
  Alcotest.(check bool) "put acks" true (Kv.exec kv (Kv.Put (1, 10)) = Kv.Ack);
  Alcotest.(check bool) "hit" true (Kv.exec kv (Kv.Get 1) = Kv.Hit 10);
  Alcotest.(check bool) "add returns new" true
    (Kv.exec kv (Kv.Add (1, 5)) = Kv.Hit 15);
  Alcotest.(check bool) "add upserts" true
    (Kv.exec kv (Kv.Add (99, 7)) = Kv.Hit 7);
  Alcotest.(check int) "size" 2 (Kv.size kv);
  Alcotest.(check int) "no drops" 0 (Kv.dropped kv);
  (* Empty multi-key ops have no footprint and complete immediately. *)
  Alcotest.(check bool) "empty multi_get" true
    (Kv.exec kv (Kv.Multi_get [||]) = Kv.Many [||]);
  Alcotest.(check bool) "empty multi_put" true
    (Kv.exec kv (Kv.Multi_put [||]) = Kv.Ack)

(* Cross-shard ops on an idle store, where the caller claims every
   footprint shard and applies in place; then one that finds a flag
   held.  Another domain's point [Put] on shard 1 goes through the
   mailbox under an armed wedge, and its combiner spins 50 ms holding
   that shard's flag.  A [Multi_put] over shards 0 and 1 claims shard 0,
   waits behind the wedged flag (the one wait [Kv.handoffs] counts),
   then applies; a [Multi_get] reads its values. *)
let test_kv_multi () =
  let keys = Array.init 64 (fun i -> i) in
  let kvs = Array.map (fun k -> (k, k * 2)) keys in
  let kv = Kv.create ~shards:4 ~buckets_per_shard:4 () in
  Alcotest.(check bool) "multi_put acks" true (Kv.exec kv (Kv.Multi_put kvs) = Kv.Ack);
  (match Kv.exec kv (Kv.Multi_get keys) with
  | Kv.Many res ->
    Array.iteri
      (fun i v ->
        Alcotest.(check bool) (Printf.sprintf "multi_get key %d" i) true
          (v = Some (i * 2)))
      res
  | _ -> Alcotest.fail "multi_get must return Many");
  Alcotest.(check int) "idle store: no handoffs" 0 (Kv.handoffs kv);
  (* Distinct home shards actually exist for this key set. *)
  let shards_hit =
    Array.fold_left
      (fun acc k ->
        if List.mem (Kv.shard_of_key kv k) acc then acc
        else Kv.shard_of_key kv k :: acc)
      [] keys
  in
  Alcotest.(check bool) "keys span shards" true (List.length shards_hit > 1);
  let kv = Kv.create ~shards:2 ~buckets_per_shard:4 () in
  let key_on shard =
    let rec go k = if Kv.shard_of_key kv k = shard then k else go (k + 1) in
    go 0
  in
  let k0 = key_on 0 and k1 = key_on 1 in
  let claims = Kv.claims kv ~shard:1 in
  Kv.inject_wedge ~shard:1 ~ms:50;
  let d = Domain.spawn (fun () -> Kv.exec kv (Kv.Put (k1, 7))) in
  while Kv.claims kv ~shard:1 = claims do
    Domain.cpu_relax ()
  done;
  let t0 = Nowa_util.Clock.now_ns () in
  let put = Kv.exec kv (Kv.Multi_put [| (k0, 1); (k1, 2) |]) in
  let waited_ms = float (Nowa_util.Clock.now_ns () - t0) /. 1e6 in
  Alcotest.(check bool) "point put behind the wedge acks" true (Domain.join d = Kv.Ack);
  Kv.clear_wedge ();
  Alcotest.(check bool) "contended multi_put acks" true (put = Kv.Ack);
  Alcotest.(check int)
    (Printf.sprintf "one waited claim (multi_put took %.1f ms)" waited_ms)
    1 (Kv.handoffs kv);
  Alcotest.(check bool) "multi_get reads the multi_put" true
    (Kv.exec kv (Kv.Multi_get [| k1; k0 |]) = Kv.Many [| Some 2; Some 1 |])

let test_kv_admission_control () =
  let kv = Kv.create ~shards:2 ~queue_cap:0 () in
  Alcotest.(check bool) "over-capacity drops" true
    (Kv.exec kv (Kv.Put (1, 1)) = Kv.Dropped);
  Alcotest.(check int) "drop counted" 1 (Kv.dropped kv)

(* Allocation of the point path, pinned the way bench hotpath pins
   alloc_per_spawn.  A preloaded idle store, no log, no span, ops built
   beforehand, so the count is [Kv.exec]'s own: on an idle shard only
   [Hashtbl.find_opt]'s option (2) and the [Hit] (2) for a Get (the
   next test pins each op kind).  The pin, set one small block (3 words)
   above an earlier 9.0 for this half-Get, half-Put mix, stays. *)
let point_alloc_pin = 12.0

let test_kv_point_alloc () =
  let kv = Kv.create () in
  let keys = 1_000 and n = 20_000 in
  for k = 0 to keys - 1 do
    ignore (Kv.exec kv (Kv.Put (k, k)))
  done;
  let ops =
    Array.init n (fun i ->
        if i land 1 = 0 then Kv.Get (i mod keys) else Kv.Put (i mod keys, i))
  in
  let w0 = Gc.minor_words () in
  Array.iter (fun op -> ignore (Kv.exec kv op)) ops;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per point op (pinned <= %.1f)" words
       point_alloc_pin)
    true
    (words <= point_alloc_pin)

(* An idle shard's point op is its own combiner and returns its
   outcome directly: no request record, no outcome cell.  Outside any
   runtime, over the same preloaded store, each op kind is measured on
   its own: a Put of an existing key and a Get miss allocate nothing,
   and a Get hit only its reply, [find_opt]'s [Some] and the [Hit]
   (4 words). *)
let test_kv_idle_point_reply_only () =
  let kv = Kv.create () in
  let keys = 1_000 and n = 100_000 in
  for k = 0 to keys - 1 do
    ignore (Kv.exec kv (Kv.Put (k, k)))
  done;
  let check name limit op_of =
    let ops = Array.init n op_of in
    let w0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      ignore (Kv.exec kv ops.(i))
    done;
    let words = (Gc.minor_words () -. w0) /. float_of_int n in
    if words > limit +. 0.01 then
      Alcotest.failf "%s: %.2f minor words per op, expected %.0f" name words limit
  in
  check "Put" 0.0 (fun i -> Kv.Put (i mod keys, i));
  check "Get miss" 0.0 (fun i -> Kv.Get (keys + (i mod keys)));
  check "Get hit" 4.0 (fun i -> Kv.Get (i mod keys))

(* Allocation of the idle multi-key path, pinned the same way: serial
   Multi_gets of 1 to 8 keys (4.5 per op) over a preloaded idle 16 x 64
   store, the benchmark's shape.  Per op: the footprint (1 + 4.5 words:
   one shard id per key, repeats kept), the result array (1 + 4.5) with
   a [Some] per key (9), [Many] (2) and the closure that maps the keys.
   It measured 28.0 words per op; the pin, set one small block (3 words)
   above an earlier 28.1, stays. *)
let multi_alloc_pin = 31.0

let test_kv_multi_alloc () =
  let kv = Kv.create ~shards:16 ~buckets_per_shard:64 () in
  let keys = 20_000 and n = 20_000 in
  for k = 0 to keys - 1 do
    ignore (Kv.exec kv (Kv.Put (k, k)))
  done;
  let rng = Sm.make ~seed:5 in
  let ops =
    Array.init n (fun i ->
        Kv.Multi_get (Array.init (1 + (i mod 8)) (fun _ -> Sm.int rng keys)))
  in
  let w0 = Gc.minor_words () in
  Array.iter (fun op -> ignore (Kv.exec kv op)) ops;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "no handoffs on an idle store" 0 (Kv.handoffs kv);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per multi-key op (pinned <= %.1f)" words
       multi_alloc_pin)
    true
    (words <= multi_alloc_pin)

(* -- linearizability: log replay ------------------------------------------ *)

(* Replay the apply log (global seq order) against a sequential
   Hashtbl.  Every logged [read] must match the replay state at that
   point — this catches lost operations, double-applies and torn
   multi-key transactions.  Returns the replay table for a final-state
   comparison. *)
let replay_check log =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (e : Kv.log_entry) ->
      let expect = Hashtbl.find_opt tbl e.l_key in
      if expect <> e.read then
        Alcotest.failf
          "seq %d req %d key %d: logged read %s but replay says %s" e.seq
          e.req_id e.l_key
          (match e.read with Some v -> string_of_int v | None -> "None")
          (match expect with Some v -> string_of_int v | None -> "None");
      match e.wrote with
      | Some v -> Hashtbl.replace tbl e.l_key v
      | None -> ())
    log;
  tbl

let check_final_state kv replay =
  let store_n = Kv.fold (fun _ _ n -> n + 1) kv 0 in
  Alcotest.(check int) "store and replay agree on size"
    (Hashtbl.length replay) store_n;
  Kv.fold
    (fun k v () ->
      match Hashtbl.find_opt replay k with
      | Some v' when v' = v -> ()
      | got ->
        Alcotest.failf "final state: key %d is %d in store, %s in replay" k v
          (match got with Some v -> string_of_int v | None -> "absent"))
    kv ()

let random_op rng keyspace =
  let key () = Sm.int rng keyspace in
  let multi n = Array.init (1 + Sm.int rng n) (fun _ -> key ()) in
  match Sm.int rng 10 with
  | 0 | 1 | 2 -> Kv.Get (key ())
  | 3 | 4 -> Kv.Put (key (), Sm.int rng 1000)
  | 5 | 6 -> Kv.Add (key (), 1 + Sm.int rng 9)
  | 7 | 8 -> Kv.Multi_get (multi 4)
  | _ -> Kv.Multi_put (Array.map (fun k -> (k, Sm.int rng 1000)) (multi 4))

let test_kv_log_replay_sequential () =
  let kv = Kv.create ~shards:4 ~buckets_per_shard:4 ~log:true () in
  let rng = Sm.make ~seed:7 in
  for _ = 1 to 2_000 do
    ignore (Kv.exec kv (random_op rng 100))
  done;
  let replay = replay_check (Kv.log kv) in
  check_final_state kv replay

(* Raw domains hammering the store: combining and ordered multi-key
   claims under real parallelism with no scheduler in the way. *)
let test_kv_stress_domains () =
  let kv = Kv.create ~shards:4 ~buckets_per_shard:4 ~log:true () in
  let domains = 4 and per_domain = 2_000 in
  let pendings = Atomic.make 0 in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let rng = Sm.make ~seed:(1000 + d) in
            for _ = 1 to per_domain do
              match Kv.exec kv (random_op rng 64) with
              | Kv.Pending -> Atomic.incr pendings
              | _ -> ()
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "exec never returns Pending" 0 (Atomic.get pendings);
  Alcotest.(check int) "no drops under default cap" 0 (Kv.dropped kv);
  let log = Kv.log kv in
  Alcotest.(check bool) "log non-empty" true (log <> []);
  let replay = replay_check log in
  check_final_state kv replay

(* -- linearizability smoke across the three engine families --------------- *)

let smoke_on (module R : Nowa.RUNTIME) () =
  let kv = Kv.create ~shards:8 ~buckets_per_shard:4 ~log:true () in
  let n = 1_500 in
  let bad = Atomic.make 0 in
  let conf = Nowa.Config.with_workers 4 in
  R.run ~conf (fun () ->
      R.scope (fun sc ->
          let rng = Sm.make ~seed:11 in
          for _ = 1 to n do
            let op = random_op rng 128 in
            R.spawn_unit sc (fun () ->
                match Kv.exec kv op with
                | Kv.Pending | Kv.Dropped -> Atomic.incr bad
                | _ -> ())
          done));
  Alcotest.(check int) "every request served" 0 (Atomic.get bad);
  let log = Kv.log kv in
  (* Every mutation and read went through the combiner exactly once. *)
  let replay = replay_check log in
  check_final_state kv replay

(* Under the serial elision, requests apply in arrival order, so the
   store must agree with a plain sequential reference fed the same
   stream — determinism end to end, not just log consistency. *)
let test_serial_arrival_order () =
  let module R = Nowa_runtime.Serial_runtime in
  let kv = Kv.create ~shards:4 ~buckets_per_shard:4 () in
  let reference = Hashtbl.create 256 in
  let model op =
    match op with
    | Kv.Get k ->
      (match Hashtbl.find_opt reference k with
      | Some v -> Kv.Hit v
      | None -> Kv.Miss)
    | Kv.Put (k, v) ->
      Hashtbl.replace reference k v;
      Kv.Ack
    | Kv.Add (k, d) ->
      let nv =
        match Hashtbl.find_opt reference k with Some v -> v + d | None -> d
      in
      Hashtbl.replace reference k nv;
      Kv.Hit nv
    | Kv.Multi_get ks ->
      Kv.Many (Array.map (fun k -> Hashtbl.find_opt reference k) ks)
    | Kv.Multi_put kvs ->
      Array.iter (fun (k, v) -> Hashtbl.replace reference k v) kvs;
      Kv.Ack
  in
  R.run (fun () ->
      R.scope (fun sc ->
          let rng = Sm.make ~seed:23 in
          for _ = 1 to 2_000 do
            let op = random_op rng 100 in
            R.spawn_unit sc (fun () ->
                let got = Kv.exec kv op in
                let want = model op in
                if got <> want then
                  Alcotest.fail "serial run diverged from reference")
          done));
  Hashtbl.iter
    (fun k v ->
      match Kv.exec kv (Kv.Get k) with
      | Kv.Hit v' when v' = v -> ()
      | _ -> Alcotest.failf "final state mismatch at key %d" k)
    reference

(* -- workload & load generator -------------------------------------------- *)

let test_workload_deterministic () =
  let mix = Option.get (Workload.find_mix "a") in
  let spec =
    { (Workload.default_spec ~mix) with Workload.requests = 500; warmup = 50 }
  in
  let s1 = Workload.generate spec and s2 = Workload.generate spec in
  Alcotest.(check int) "same length" (Array.length s1) (Array.length s2);
  Array.iteri
    (fun i (e1 : Workload.event) ->
      let e2 = s2.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "event %d identical" i)
        true
        (e1.Workload.at_ns = e2.Workload.at_ns && e1.Workload.op = e2.Workload.op))
    s1;
  (* Arrival times strictly ordered, ops match the mix (A: reads+updates). *)
  Array.iter
    (fun (e : Workload.event) ->
      match e.Workload.cls with
      | Workload.Read | Workload.Update -> ()
      | _ -> Alcotest.fail "mix A generated a non-read/update op")
    s1

let test_loadgen_smoke () =
  let module L = Nowa_server.Loadgen.Make (Nowa.Presets.Nowa) in
  let mix = Option.get (Workload.find_mix "A") in
  let spec =
    {
      (Workload.default_spec ~mix) with
      Workload.records = 200;
      rate = 100_000.0;
      warmup = 50;
      requests = 400;
      shards = 8;
      buckets_per_shard = 8;
    }
  in
  let conf = Nowa.Config.with_workers 4 in
  let r = L.run ~conf spec in
  Alcotest.(check int) "all measured requests completed" 400 r.Nowa_server.Loadgen.completed;
  Alcotest.(check int) "no drops" 0 r.Nowa_server.Loadgen.dropped;
  Alcotest.(check bool) "throughput positive" true
    (r.Nowa_server.Loadgen.throughput > 0.0);
  let total = r.Nowa_server.Loadgen.total in
  Alcotest.(check bool) "p50 finite and positive" true
    (total.Nowa_server.Loadgen.p50_ns > 0.0);
  Alcotest.(check bool) "p999 >= p50" true
    (total.Nowa_server.Loadgen.p999_ns >= total.Nowa_server.Loadgen.p50_ns);
  (* Every YCSB mix on nowa under a parking and a spinning idle policy
     at 2,000 req/s, and mix A on the Chase-Lev and THE deques at 2,000
     and 8,000 req/s, on 2 workers: below saturation, so admission
     control must never engage. *)
  let input (module R : Nowa.RUNTIME) policy mix_name rate =
    let module L = Nowa_server.Loadgen.Make (R) in
    let spec =
      {
        (Workload.default_spec ~mix:(Option.get (Workload.find_mix mix_name))) with
        Workload.records = 200;
        rate;
        warmup = 50;
        requests = 400;
      }
    in
    let conf =
      { (Nowa.Config.with_workers 2) with Nowa.Config.idle_policy = policy }
    in
    let r = L.run ~conf spec in
    let what = Printf.sprintf "%s mix %s at %.0f/s" R.name mix_name rate in
    Alcotest.(check int) (what ^ ": all completed") r.Nowa_server.Loadgen.offered
      r.Nowa_server.Loadgen.completed;
    Alcotest.(check int) (what ^ ": no drops") 0 r.Nowa_server.Loadgen.dropped
  in
  let park = Nowa.Config.Park_after 512 in
  List.iter
    (fun (m : Workload.mix) ->
      List.iter
        (fun policy ->
          input (module Nowa.Presets.Nowa) policy m.Workload.mname 2_000.0)
        [ park; Nowa.Config.Spin ])
    Workload.mixes;
  input (module Nowa.Presets.Nowa_the) park "A" 2_000.0;
  input (module Nowa.Presets.Nowa) park "A" 8_000.0;
  input (module Nowa.Presets.Nowa_the) park "A" 8_000.0

(* The pooled path: the dispatch loop on a 1-worker inject pool, every
   request routed to a 1-worker serve pool.  Two workers run, whatever
   [Config.workers] says, and the report must say so. *)
let test_loadgen_pooled () =
  let module L = Nowa_server.Loadgen.Make (Nowa.Presets.Nowa) in
  let spec =
    {
      (Workload.default_spec ~mix:(Option.get (Workload.find_mix "A"))) with
      Workload.records = 200;
      rate = 2_000.0;
      warmup = 50;
      requests = 400;
    }
  in
  let conf =
    {
      (Nowa.Config.with_workers 1) with
      Nowa.Config.pools =
        [ Nowa.Config.pool "inject" ~workers:1; Nowa.Config.pool "serve" ~workers:1 ];
    }
  in
  let r = L.run ~conf ~pools:("inject", "serve") spec in
  Alcotest.(check int) "completed = offered" r.Nowa_server.Loadgen.offered
    r.Nowa_server.Loadgen.completed;
  Alcotest.(check int) "no drops" 0 r.Nowa_server.Loadgen.dropped;
  Alcotest.(check int) "workers that ran" 2 r.Nowa_server.Loadgen.workers

(* -- request spans & anatomy ---------------------------------------------- *)

module Span = Nowa_trace.Span
module LG = Nowa_server.Loadgen

let anatomy_spec ~mix_name ~requests =
  let mix = Option.get (Workload.find_mix mix_name) in
  {
    (Workload.default_spec ~mix) with
    Workload.records = 200;
    rate = 200_000.0;
    warmup = 50;
    requests;
    shards = 4;
    buckets_per_shard = 4;
  }

(* The conservation law is the tentpole invariant: for every finished
   request the five phase ledgers must sum to end-to-end latency exactly
   (integer ns, zero residual), on any mix and any engine family. *)
let prop_conservation =
  QCheck.Test.make ~name:"span ledgers conserve (random mix/runtime/workers)"
    ~count:10
    QCheck.(triple (int_range 0 5) bool (int_range 2 4))
    (fun (mix_i, serial, workers) ->
      let mix_name = String.make 1 (Char.chr (Char.code 'A' + mix_i)) in
      let spec = anatomy_spec ~mix_name ~requests:300 in
      let r =
        if serial then
          let module L = LG.Make (Nowa_runtime.Serial_runtime) in
          L.run ~anatomy:true spec
        else
          let module L = LG.Make (Nowa.Presets.Nowa) in
          L.run ~conf:(Nowa.Config.with_workers workers) ~anatomy:true spec
      in
      let span = r.LG.span in
      Alcotest.(check bool) "span enabled" true (Span.enabled span);
      for rid = 0 to Span.allocated span - 1 do
        if Span.finished span rid then begin
          let err = Span.conservation_error span rid in
          if err <> 0 then
            Alcotest.failf "mix %s rid %d: residual %d ns" mix_name rid err;
          if Span.total_ns span rid < 0 then
            Alcotest.failf "mix %s rid %d: negative latency" mix_name rid
        end
      done;
      (match r.LG.anatomy with
      | None -> Alcotest.fail "anatomy report missing"
      | Some a ->
        Alcotest.(check int) "no conservation violations" 0
          a.Nowa_server.Anatomy.violations;
        Alcotest.(check int) "zero max residual" 0
          a.Nowa_server.Anatomy.max_abs_err_ns;
        Alcotest.(check int) "every measured request sampled" 300
          (a.Nowa_server.Anatomy.sampled + a.Nowa_server.Anatomy.dropped));
      true)

(* On idle shards a request claims the flags itself: a point op its
   shard's, a multi-key op every footprint shard's.  Its ledger still
   telescopes exactly, and Sched_wait and the claim bank from one clock
   read, so Mailbox_wait is exactly 0; no multi-key claim waits on a
   store nobody else uses, so Handoff_wait is 0 too.  Every shard the
   request touched counts the claim.  (Through the mailbox, the push and
   the claim read the clock apart.) *)
let test_idle_shard_ledger () =
  let n = 1_000 in
  let span = Span.create ~capacity:n () in
  let kv = Kv.create ~shards:4 ~buckets_per_shard:8 ~span () in
  for i = 0 to n - 1 do
    let rid =
      Span.alloc span ~cls:0 ~measured:true
        ~sched_ns:(Nowa_util.Clock.now_ns ())
    in
    let op =
      match i mod 4 with
      | 0 -> Kv.Put (i mod 64, i)
      | 1 -> Kv.Get (i mod 64)
      | 2 ->
        Kv.Multi_put (Array.init (1 + (i mod 5)) (fun j -> ((i + (13 * j)) mod 64, i)))
      | _ -> Kv.Multi_get (Array.init (1 + (i mod 7)) (fun j -> (i + (7 * j)) mod 64))
    in
    let keys =
      match op with
      | Kv.Get k | Kv.Put (k, _) | Kv.Add (k, _) -> [ k ]
      | Kv.Multi_get ks -> Array.to_list ks
      | Kv.Multi_put kvs -> List.map fst (Array.to_list kvs)
    in
    let shards = List.sort_uniq compare (List.map (Kv.shard_of_key kv) keys) in
    let before = List.map (fun shard -> Kv.claims kv ~shard) shards in
    ignore (Kv.exec ~rid kv op);
    Span.finish span rid ~ts:(Nowa_util.Clock.now_ns ());
    List.iter2
      (fun shard b ->
        Alcotest.(check bool)
          (Printf.sprintf "rid %d: shard %d counted the claim" rid shard)
          true
          (Kv.claims kv ~shard > b))
      shards before
  done;
  Alcotest.(check int) "no handoffs" 0 (Kv.handoffs kv);
  for rid = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "rid %d finished" rid) true
      (Span.finished span rid);
    Alcotest.(check int)
      (Printf.sprintf "rid %d conserves" rid)
      0
      (Span.conservation_error span rid);
    Alcotest.(check int)
      (Printf.sprintf "rid %d mailbox_wait" rid)
      0
      (Span.phase_ns span rid Span.Mailbox_wait);
    Alcotest.(check int)
      (Printf.sprintf "rid %d handoff_wait" rid)
      0
      (Span.phase_ns span rid Span.Handoff_wait)
  done

(* The reservoir must hold exactly the top-K offered latencies even when
   the offers race from several domains. *)
let test_tail_topk_domains () =
  let k = 8 and n = 4_096 in
  let span = Span.create ~tail:k ~capacity:n () in
  let lat_of_rid rid = 1 + ((rid * 7_919) mod 1_000_003) in
  let domains = 4 in
  let per = n / domains in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = d * per to ((d + 1) * per) - 1 do
              Span.offer_tail span ~rid:i ~lat_ns:(lat_of_rid i)
            done))
  in
  List.iter Domain.join ds;
  let got = Span.tail_entries span in
  Alcotest.(check int) "reservoir full" k (List.length got);
  let expect =
    List.init n lat_of_rid |> List.sort (fun a b -> compare b a)
    |> List.filteri (fun i _ -> i < k)
  in
  List.iteri
    (fun i (rid, lat) ->
      Alcotest.(check int) (Printf.sprintf "slot %d latency" i)
        (List.nth expect i) lat;
      Alcotest.(check int) (Printf.sprintf "slot %d rid consistent" i)
        (lat_of_rid rid) lat)
    got;
  (* The cached threshold never exceeds the true reservoir minimum. *)
  let min_kept = List.fold_left (fun m (_, l) -> min m l) max_int got in
  Alcotest.(check bool) "threshold is a sound lower bound" true
    (Span.tail_threshold span <= min_kept)

(* Request ids come from the injection loop in schedule order, so a
   serial replay (the DAG recorder) assigns identical ids, classes and
   combiners across runs — spans are usable as a deterministic key. *)
let test_recorder_span_determinism () =
  let module L = LG.Make (Nowa_dag.Recorder) in
  let spec = anatomy_spec ~mix_name:"F" ~requests:200 in
  let r1 = L.run ~anatomy:true spec in
  let r2 = L.run ~anatomy:true spec in
  let s1 = r1.LG.span and s2 = r2.LG.span in
  Alcotest.(check int) "same rid count" (Span.allocated s1) (Span.allocated s2);
  for rid = 0 to Span.allocated s1 - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "rid %d finished in both" rid)
      (Span.finished s1 rid) (Span.finished s2 rid);
    Alcotest.(check int)
      (Printf.sprintf "rid %d same class" rid)
      (Span.cls_of s1 rid) (Span.cls_of s2 rid);
    (* The recorder executes on the initial domain, worker 0. *)
    if Span.finished s1 rid && not (Span.was_dropped s1 rid) then
      Alcotest.(check int)
        (Printf.sprintf "rid %d combined on worker 0" rid)
        0 (Span.combiner_of s1 rid)
  done

let test_anatomy_report () =
  let module L = LG.Make (Nowa.Presets.Nowa) in
  let spec = anatomy_spec ~mix_name:"A" ~requests:400 in
  let conf = Nowa.Config.with_workers 4 in
  let r = L.run ~conf ~anatomy:true spec in
  match r.LG.anatomy with
  | None -> Alcotest.fail "anatomy missing from report"
  | Some a ->
    let open Nowa_server.Anatomy in
    Alcotest.(check int) "all measured requests sampled" 400
      (a.sampled + a.dropped);
    Alcotest.(check int) "no violations" 0 a.violations;
    (match a.classes with
    | { label = "total"; count; phases } :: rest ->
      Alcotest.(check int) "total counts sampled requests" a.sampled count;
      Alcotest.(check int) "one row per phase" Span.n_phases
        (Array.length phases);
      Array.iter
        (fun ps ->
          Alcotest.(check bool) "quantiles ordered" true
            (ps.p50_ns <= ps.p99_ns && ps.p99_ns <= ps.p999_ns
           && ps.p999_ns <= ps.max_ns))
        phases;
      Alcotest.(check bool) "mix A yields read and update rows" true
        (List.length rest >= 2)
    | _ -> Alcotest.fail "first anatomy class must be total");
    (* Tail is sorted slowest-first and within collector bounds. *)
    let rec desc = function
      | a :: (b :: _ as tl) -> a.total_ns >= b.total_ns && desc tl
      | _ -> true
    in
    Alcotest.(check bool) "tail sorted" true (desc a.tail);
    List.iter
      (fun te ->
        Alcotest.(check bool) "tail rid in range" true
          (te.rid >= 0 && te.rid < Span.capacity r.LG.span);
        Alcotest.(check int) "tail ledger conserves" te.total_ns
          (Array.fold_left ( + ) 0 te.phase_ns))
      a.tail;
    let js = json a in
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "json mentions phases" true
      (contains "\"sched_wait\"" js && contains "\"violations\"" js)

let () =
  Alcotest.run "nowa_server"
    [
      ( "kv",
        [
          Alcotest.test_case "basics" `Quick test_kv_basics;
          Alcotest.test_case "multi-key cross-shard" `Quick test_kv_multi;
          Alcotest.test_case "admission control" `Quick
            test_kv_admission_control;
          Alcotest.test_case "log replay sequential" `Quick
            test_kv_log_replay_sequential;
          Alcotest.test_case "stress domains" `Quick test_kv_stress_domains;
          Alcotest.test_case "point path allocation" `Quick
            test_kv_point_alloc;
          Alcotest.test_case "an idle-shard point op allocates only its reply"
            `Quick test_kv_idle_point_reply_only;
          Alcotest.test_case "multi-key path allocation" `Quick
            test_kv_multi_alloc;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "nowa (continuation-stealing)" `Quick
            (smoke_on (module Nowa.Presets.Nowa));
          Alcotest.test_case "tbb (child-stealing)" `Quick
            (smoke_on (module Nowa.Presets.Tbb));
          Alcotest.test_case "gomp (central queue)" `Quick
            (smoke_on (module Nowa.Presets.Gomp));
          Alcotest.test_case "serial arrival order" `Quick
            test_serial_arrival_order;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "workload deterministic" `Quick
            test_workload_deterministic;
          Alcotest.test_case "open-loop smoke" `Quick test_loadgen_smoke;
          Alcotest.test_case "pooled open loop" `Quick test_loadgen_pooled;
        ] );
      ( "anatomy",
        [
          QCheck_alcotest.to_alcotest prop_conservation;
          Alcotest.test_case "idle-shard ledger conserves" `Quick
            test_idle_shard_ledger;
          Alcotest.test_case "tail reservoir top-K across domains" `Quick
            test_tail_topk_domains;
          Alcotest.test_case "recorder span determinism" `Quick
            test_recorder_span_determinism;
          Alcotest.test_case "anatomy report structure" `Quick
            test_anatomy_report;
        ] );
    ]
