(* YCSB-style workload specification and deterministic open-loop
   schedule generation.

   The schedule (operation + scheduled arrival time per request) is
   fully pre-generated from a seed before the run starts, so (a) the
   generator costs nothing on the measurement path and (b) two runs
   with the same spec send bit-identical request streams — an A/B
   comparison of two runtimes compares schedulers, not workloads. *)

type op_class = Read | Update | Insert | Scan | Rmw

let classes = [| Read; Update; Insert; Scan; Rmw |]
let class_name = function
  | Read -> "read"
  | Update -> "update"
  | Insert -> "insert"
  | Scan -> "scan"
  | Rmw -> "rmw"

type key_dist = Zipfian | Latest | Uniform

type mix = {
  mname : string;
  read : float;
  update : float;
  insert : float;
  scan : float;
  rmw : float;
  dist : key_dist;
}

(* The six core YCSB workloads (proportions from the reference
   definitions; workload D reads the latest inserts, E scans). *)
let mixes =
  [
    { mname = "A"; read = 0.5; update = 0.5; insert = 0.; scan = 0.; rmw = 0.; dist = Zipfian };
    { mname = "B"; read = 0.95; update = 0.05; insert = 0.; scan = 0.; rmw = 0.; dist = Zipfian };
    { mname = "C"; read = 1.0; update = 0.; insert = 0.; scan = 0.; rmw = 0.; dist = Zipfian };
    { mname = "D"; read = 0.95; update = 0.; insert = 0.05; scan = 0.; rmw = 0.; dist = Latest };
    { mname = "E"; read = 0.; update = 0.; insert = 0.05; scan = 0.95; rmw = 0.; dist = Zipfian };
    { mname = "F"; read = 0.5; update = 0.; insert = 0.; scan = 0.; rmw = 0.5; dist = Zipfian };
  ]

let find_mix name =
  let u = String.uppercase_ascii name in
  List.find_opt (fun m -> m.mname = u) mixes

type spec = {
  mix : mix;
  records : int;  (* preloaded keys 0..records-1 *)
  rate : float;  (* offered load, requests per second *)
  warmup : int;  (* leading requests excluded from measurement *)
  requests : int;  (* measured requests *)
  theta : float;  (* zipf skew *)
  max_scan : int;  (* max keys per scan *)
  shards : int;
  buckets_per_shard : int;
  seed : int;
}

let default_spec ~mix =
  {
    mix;
    records = 2_000;
    rate = 5_000.0;
    warmup = 500;
    requests = 5_000;
    theta = 0.99;
    max_scan = 8;
    shards = 16;
    buckets_per_shard = 64;
    seed = 42;
  }

type event = { cls : op_class; op : Kv.op; at_ns : int }

(* Zipf ranks are scrambled into the key space so the hot ranks are not
   adjacent integers (YCSB's "scrambled zipfian"); |keyspace| tracks
   inserts so D's "latest" skew chases the newest keys. *)
let generate spec =
  let module Sm = Nowa_util.Splitmix in
  let root = Sm.make ~seed:spec.seed in
  let r_arrival = Sm.split root in
  let r_op = Sm.split root in
  let r_key = Sm.split root in
  let r_val = Sm.split root in
  let zipf = Nowa_util.Zipf.create ~n:spec.records ~theta:spec.theta in
  let next_key = ref spec.records in
  let population () = !next_key in
  let zipf_key () =
    let rank = Nowa_util.Zipf.draw zipf r_key in
    Sm.scramble rank mod population ()
  in
  let pick_key () =
    match spec.mix.dist with
    | Zipfian -> zipf_key ()
    | Uniform -> Sm.int r_key (population ())
    | Latest ->
      let rank = Nowa_util.Zipf.draw zipf r_key in
      let k = population () - 1 - rank in
      if k < 0 then 0 else k
  in
  let fresh_key () =
    let k = !next_key in
    incr next_key;
    k
  in
  let pick_class () =
    let u = Sm.float r_op in
    let m = spec.mix in
    if u < m.read then Read
    else if u < m.read +. m.update then Update
    else if u < m.read +. m.update +. m.insert then Insert
    else if u < m.read +. m.update +. m.insert +. m.scan then Scan
    else Rmw
  in
  let op_of = function
    | Read -> Kv.Get (pick_key ())
    | Update -> Kv.Put (pick_key (), Sm.int r_val 1_000_000)
    | Insert -> Kv.Put (fresh_key (), Sm.int r_val 1_000_000)
    | Rmw -> Kv.Add (pick_key (), 1 + Sm.int r_val 100)
    | Scan ->
      let start = pick_key () in
      let len = 1 + Sm.int r_key spec.max_scan in
      Kv.Multi_get (Array.init len (fun i -> (start + i) mod population ()))
  in
  let gap_ns () =
    let u = Sm.float r_arrival in
    int_of_float (-.log (1.0 -. u) /. spec.rate *. 1e9)
  in
  let clock = ref 0 in
  Array.init (spec.warmup + spec.requests) (fun _ ->
      clock := !clock + gap_ns ();
      let cls = pick_class () in
      { cls; op = op_of cls; at_ns = !clock })
