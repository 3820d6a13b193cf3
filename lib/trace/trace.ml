(** A trace: one wait-free event ring per worker, created by a runtime
    when [Config.trace_capacity > 0] and drained after the domains join.

    The same container carries real wall-clock traces from the OCaml 5
    engines and virtual-time traces from the {!Nowa_dag.Wsim} simulator —
    both flow through the same {!Perfetto} exporter and
    {!Trace_analysis} summaries. *)

type clock = Wall | Virtual

type t = {
  rings : Ring.t array;
  names : string array;  (* one track name per worker *)
  capacity : int;
  clock : clock;
}

(** [names] labels each worker's track in exported timelines; a runtime
    passes ["pool/local"], and the default is ["worker N"]. *)
let create ?(clock = Wall) ?names ~workers ~capacity () =
  let workers = Int.max 1 workers in
  {
    rings = Array.init workers (fun _ -> Ring.create ~capacity);
    names =
      Option.value names
        ~default:(Array.init workers (Printf.sprintf "worker %d"));
    capacity;
    clock;
  }

let workers t = Array.length t.rings
let name t i = t.names.(i)

(** The ring a worker writes to.  Out-of-range ids get the shared
    disabled ring so integration points never need a bounds check. *)
let worker t i =
  if i >= 0 && i < Array.length t.rings then t.rings.(i) else Ring.disabled

let dropped t = Array.fold_left (fun acc r -> acc + Ring.dropped r) 0 t.rings
let emitted t = Array.fold_left (fun acc r -> acc + Ring.emitted r) 0 t.rings

(** Per-worker event arrays, each oldest-first (the order the worker
    emitted them, which for wall traces is also timestamp order thanks to
    the per-domain monotonic clamp in {!Nowa_util.Clock}). *)
let per_worker_events t =
  Array.mapi (fun i r -> Ring.events r ~worker:i) t.rings

(** Live freeze: per-worker event arrays sampled from the rings while
    their writers may still be running, via {!Ring.snapshot}.  [window]
    bounds the events kept per worker.  Returns the arrays (each
    oldest-first) and the total number of slots discarded as torn or
    recycled mid-copy. *)
let freeze ?window t =
  let dropped = ref 0 in
  let evs =
    Array.mapi
      (fun i r ->
        let arr, d = Ring.snapshot ?window r ~worker:i in
        dropped := !dropped + d;
        arr)
      t.rings
  in
  (evs, !dropped)

(** All events merged and sorted by timestamp (stable across workers). *)
let events t =
  let all = Array.concat (Array.to_list (per_worker_events t)) in
  let arr = Array.copy all in
  Array.stable_sort (fun a b -> Int.compare a.Event.ts b.Event.ts) arr;
  arr

(** Earliest timestamp in the trace, or 0 if empty; used by the exporter
    to rebase timestamps near zero. *)
let base_ts t =
  Array.fold_left
    (fun acc r ->
      if Ring.length r > 0 then
        let evs = Ring.events r ~worker:0 in
        Int.min acc evs.(0).Event.ts
      else acc)
    max_int t.rings
  |> fun m -> if m = max_int then 0 else m
