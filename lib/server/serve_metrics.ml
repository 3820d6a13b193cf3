(** Serving-layer metrics on {!Nowa_obs.Registry.default}, so a
    [--metrics-addr] scrape (or [--metrics-out] dump) during a serve run
    shows request and tail-latency data next to the scheduler counters.

    Latencies are recorded from the request's {e scheduled} arrival
    time, not from when the dispatch loop got around to issuing it —
    the open-loop convention that keeps queueing delay inside the
    measurement (no coordinated omission). *)

let requests =
  Nowa_obs.Registry.counter "nowa_serve_requests_total"
    ~help:"KV requests issued by the load generator (measured phase)."

let dropped =
  Nowa_obs.Registry.counter "nowa_serve_dropped_total"
    ~help:"KV requests rejected by shard admission control."

let handoffs =
  Nowa_obs.Registry.counter "nowa_serve_handoffs_total"
    ~help:"Multi-key claims that waited for a shard flag another caller held."

let read_latency =
  Nowa_obs.Registry.histogram "nowa_serve_read_latency_ns"
    ~help:"Read latency from scheduled arrival to completion (ns)."

let update_latency =
  Nowa_obs.Registry.histogram "nowa_serve_update_latency_ns"
    ~help:"Update latency from scheduled arrival to completion (ns)."

let insert_latency =
  Nowa_obs.Registry.histogram "nowa_serve_insert_latency_ns"
    ~help:"Insert latency from scheduled arrival to completion (ns)."

let scan_latency =
  Nowa_obs.Registry.histogram "nowa_serve_scan_latency_ns"
    ~help:"Scan latency from scheduled arrival to completion (ns)."

let rmw_latency =
  Nowa_obs.Registry.histogram "nowa_serve_rmw_latency_ns"
    ~help:"Read-modify-write latency from scheduled arrival to completion (ns)."

let deadline_misses =
  Nowa_obs.Registry.counter "nowa_serve_deadline_misses_total"
    ~help:
      "Measured requests whose arrival-to-completion latency exceeded \
       the configured SLO deadline."

let latency =
  Nowa_obs.Registry.histogram "nowa_serve_latency_ns"
    ~help:
      "Latency from scheduled arrival to completion, all op classes \
       (ns).  Scraped as cumulative nowa_serve_latency_ns_bucket{le=...} \
       lines for SLO math across mixes."

let latency_of = function
  | Workload.Read -> read_latency
  | Workload.Update -> update_latency
  | Workload.Insert -> insert_latency
  | Workload.Scan -> scan_latency
  | Workload.Rmw -> rmw_latency

let observe cls ns =
  Nowa_obs.Histogram.observe (latency_of cls) ns;
  Nowa_obs.Histogram.observe latency ns

(* Per-phase anatomy histograms, fed by {!Anatomy.publish} after a run
   so a scrape shows where serve time went, not just how much. *)
let phase_hists =
  Array.map
    (fun p ->
      let n = Nowa_trace.Span.phase_name p in
      Nowa_obs.Registry.histogram
        (Printf.sprintf "nowa_serve_phase_%s_ns" n)
        ~help:(Printf.sprintf "Per-request %s phase time (ns)." n))
    Nowa_trace.Span.phases

let observe_phase i ns = Nowa_obs.Histogram.observe phase_hists.(i) ns
