(* The metric catalogue (BENCHMARK.json's declarations plus a few
   diagnostic rows) and one run's report.

   Every workload reports every catalogue metric of the kind its mode
   prints, so every workload's result carries the same metric set.  A
   layer a workload never reaches (the KV store on fork/join, routing
   outside the pipeline) reads 0 with n=0, which says that nothing was
   measured rather than that it was free. *)

type metric = Spec.metric

(* The gated end-to-end metrics are ratios to a serial control timed in
   the same round, plus memory and set-up time: on the development host
   absolute times swing by up to 2x over minutes with co-tenant load,
   while these ratios hold.  The absolute times are [Diag] rows, as are
   the validity checks. *)
let diagnostics =
  let diag name unit higher = { Spec.name; unit; kind = Spec.Diag; higher; bound = None } in
  [
    diag "latency_ms_p50" "ms" false;
    diag "latency_ms_p90" "ms" false;
    diag "throughput_per_s" "1/s" true;
    diag "error_frac" "frac" false;
    diag "open_loop.valid" "bool" true;
  ]

let catalogue = Spec.metrics @ diagnostics

let find name =
  match List.find_opt (fun (x : metric) -> String.equal x.name name) catalogue with
  | Some x -> x
  | None -> invalid_arg ("Report: metric not declared: " ^ name)

type row = { metric : metric; value : float; n : int }

type t = {
  workload : string;
  seed : int;
  traced : bool;
  mutable rows : row list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
}

let create ~workload ~seed ~traced =
  { workload; seed; traced; rows = []; attempted = 0; failed = 0 }

(** Record [name] = [v] over [n] samples (default 1).  A later [set] of
    the same name replaces the earlier one. *)
let set ?(n = 1) t name v =
  let metric = find name in
  t.rows <-
    { metric; value = v; n }
    :: List.filter (fun r -> not (String.equal r.metric.Spec.name name)) t.rows

(** [set] for a quantity with no samples on this workload: 0, n=0. *)
let absent t names = List.iter (fun name -> set ~n:0 t name 0.) names

(** One checked operation; [ok = false] counts it as failed. *)
let check t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let check_many t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

(** The kind whose metrics this run's result line carries. *)
let mode_kind t = if t.traced then Spec.Layer else Spec.E2e

(** Every recorded row plus [error_frac], in catalogue order so every run
    prints the same sequence. *)
let rows t =
  let error_frac =
    {
      metric = find "error_frac";
      value =
        (if t.attempted = 0 then 1. else float_of_int t.failed /. float_of_int t.attempted);
      n = t.attempted;
    }
  in
  let all = error_frac :: t.rows in
  List.filter_map (fun metric -> List.find_opt (fun r -> r.metric == metric) all) catalogue

(** Metrics this run's result line needs but the run did not measure. *)
let missing t =
  let rows = rows t in
  List.filter
    (fun metric ->
      metric.Spec.kind = mode_kind t
      && not (List.exists (fun r -> r.metric == metric && Float.is_finite r.value) rows))
    catalogue

let line t r =
  Printf.sprintf "%s %s %.10g %s n=%d" t.workload r.metric.name r.value
    r.metric.unit r.n

let record_json t =
  let row r =
    Printf.sprintf "{\"metric\": %s, \"value\": %s, \"unit\": %s, \"n\": %d}"
      (Json.quote r.metric.name) (Json.number r.value) (Json.quote r.metric.unit)
      r.n
  in
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"traced\": %b, \"attempted\": %d, \
     \"failed\": %d, \"rows\": [%s]}"
    (Json.quote t.workload) t.seed t.traced t.attempted t.failed
    (String.concat ", "
       (List.map row (List.filter (fun r -> Float.is_finite r.value) (rows t))))

(** The closing result line: the mode's metrics only. *)
let result_json t =
  let kind = mode_kind t in
  let metrics =
    List.filter (fun r -> r.metric.Spec.kind = kind) (rows t)
    |> List.map (fun r ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
             (Json.quote r.metric.name) (Json.number r.value)
             (Json.quote r.metric.unit))
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failed = 0 && t.attempted > 0)
    t.attempted t.failed
    (String.concat ", " metrics)
