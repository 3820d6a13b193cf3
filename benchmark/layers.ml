(* Layer counters read through the public observability surface: the
   [Nowa.Obs.Registry] snapshot (which an engine fills from the worker
   records of its last run) and [Gc.quick_stat].  [measure] wraps one
   measured [R.run]; the sums become per-operation rates in [report], and
   the heap it leaves becomes [peak_heap_mb]. *)

module Reg = Nowa.Obs.Registry

let per_run_series =
  [
    "nowa_scheduler_spawns_total";
    "nowa_scheduler_fused_syncs_total";
    "nowa_scheduler_lost_continuations_total";
    "nowa_scheduler_suspensions_total";
    "nowa_scheduler_steals_total";
    "nowa_scheduler_steal_attempts_total";
    "nowa_scheduler_parks_total";
    "nowa_scheduler_parked_ns_total";
    "nowa_scheduler_wakeups_total";
    "nowa_scheduler_wake_retries_total";
    "nowa_scheduler_stack_acquires_total";
    "nowa_stacks_pool_hits_total";
  ]

type t = {
  sums : (string, float) Hashtbl.t;
  mutable peak_rss_pages : float;
  mutable peak_heap_words : int;
  mutable minor_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable runs : int;
}

let create () =
  {
    sums = Hashtbl.create 16;
    peak_rss_pages = 0.;
    peak_heap_words = 0;
    minor_words = 0.;
    minor_collections = 0;
    major_collections = 0;
    runs = 0;
  }

let scalar (s : Reg.sample) =
  match s.value with Reg.Counter v | Reg.Gauge v -> Some v | Reg.Histogram _ -> None

(** Run [f] (one [R.run]) from a fully collected heap and add its
    scheduler, stack and GC counts.  The major heap's size right after the
    run stands for the run's peak (what the run grew it to), and the
    collection before [f] keeps the control's garbage out of it.
    [top_heap_words] would not do: it counts the control's second domain,
    and in OCaml 5 it falls again after collections. *)
let measure t f =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  t.peak_heap_words <- max t.peak_heap_words g1.heap_words;
  t.minor_words <- t.minor_words +. (g1.minor_words -. g0.minor_words);
  t.minor_collections <-
    t.minor_collections + (g1.minor_collections - g0.minor_collections);
  t.major_collections <-
    t.major_collections + (g1.major_collections - g0.major_collections);
  t.runs <- t.runs + 1;
  List.iter
    (fun (s : Reg.sample) ->
      match scalar s with
      | Some v when List.mem s.name per_run_series ->
        let old = Option.value ~default:0. (Hashtbl.find_opt t.sums s.name) in
        Hashtbl.replace t.sums s.name (old +. v)
      | Some v when String.equal s.name "nowa_stacks_max_rss_pages" ->
        t.peak_rss_pages <- Float.max t.peak_rss_pages v
      | _ -> ())
    (Reg.snapshot ());
  r

let sum t name = Option.value ~default:0. (Hashtbl.find_opt t.sums name)

(* p99 of a registry histogram: the inclusive upper bound of the bucket
   holding the nearest-rank 99th observation.  The sync histograms are
   process-wide, so this covers every run of the process. *)
let histogram_p99 name =
  match
    List.find_opt (fun (s : Reg.sample) -> String.equal s.name name) (Reg.snapshot ())
  with
  | Some { value = Reg.Histogram h; _ } when h.count > 0 ->
    let rank = int_of_float (Float.ceil (0.99 *. float_of_int h.count)) in
    let acc = ref 0 and res = ref nan in
    Array.iteri
      (fun i c ->
        if Float.is_nan !res then begin
          acc := !acc + c;
          if !acc >= rank then res := h.le.(i)
        end)
      h.counts;
    (!res, h.count)
  | _ -> (0., 0)

(** The largest major heap any measured run left, in MB. *)
let peak_heap_mb t = float_of_int (t.peak_heap_words * (Sys.word_size / 8)) /. 1e6

(** Per-layer rows, normalised by [ops] (the operations the measured
    runs completed: kernel runs, requests or packets). *)
let report t (r : Report.t) ~ops =
  let per_op v = if ops = 0 then 0. else v /. float_of_int ops in
  let n = ops in
  let rate name series = Report.set ~n r name (per_op (sum t series)) in
  rate "engine.spawns" "nowa_scheduler_spawns_total";
  rate "engine.fused_syncs" "nowa_scheduler_fused_syncs_total";
  rate "engine.lost_continuations" "nowa_scheduler_lost_continuations_total";
  rate "engine.suspensions" "nowa_scheduler_suspensions_total";
  rate "engine.steals" "nowa_scheduler_steals_total";
  rate "engine.parks" "nowa_scheduler_parks_total";
  rate "engine.wakeups" "nowa_scheduler_wakeups_total";
  rate "engine.wake_retries" "nowa_scheduler_wake_retries_total";
  rate "stack_pool.acquires" "nowa_scheduler_stack_acquires_total";
  rate "stack_pool.global_hits" "nowa_stacks_pool_hits_total";
  Report.set ~n r "engine.parked_ms"
    (per_op (sum t "nowa_scheduler_parked_ns_total") /. 1e6);
  let attempts = sum t "nowa_scheduler_steal_attempts_total" in
  Report.set ~n:(int_of_float attempts) r "engine.steal_success"
    (if attempts = 0. then 0. else sum t "nowa_scheduler_steals_total" /. attempts);
  Report.set ~n:t.runs r "stack_pool.peak_rss_pages" t.peak_rss_pages;
  Report.set ~n r "gc.minor_words_per_op" (per_op t.minor_words);
  Report.set ~n r "gc.minor_collections" (per_op (float_of_int t.minor_collections));
  Report.set ~n r "gc.major_collections" (per_op (float_of_int t.major_collections));
  let p99, count = histogram_p99 "nowa_sync_wfc_rmw_retries" in
  Report.set ~n:count r "sync.wfc_rmw_retries_p99" p99
