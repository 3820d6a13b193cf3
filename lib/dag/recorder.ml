module Promise = Nowa_runtime.Promise
module Guard = Nowa_runtime.Runtime_guard

let name = "dag-recorder"
let description = "serial execution that records the fork/join DAG"

type scope = { mutable pending_sync : int }
(* -1 when the current spawn phase has no sync vertex yet. *)

type 'a promise = 'a Promise.t

type state = {
  dag : Dag.t;
  mutable source : int;  (* vertex the next strand hangs off; -1 at start *)
  mutable strand_start : float;  (* ns *)
}

(* Per-event timer overhead subtracted from each strand's cost. *)
let overhead_ns = 120.0

let state : state option ref = ref None
let last : Dag.t option ref = ref None

let get_state () =
  match !state with
  | Some s -> s
  | None -> failwith "Recorder: spawn/sync/scope used outside of run"

let now_ns () = Unix.gettimeofday () *. 1e9

(* Close the running strand: materialise it as a vertex charged with the
   elapsed time (minus the timer overhead) and hang it off [source]. *)
let close_strand st =
  let elapsed = now_ns () -. st.strand_start in
  let work = Float.max 1.0 (elapsed -. overhead_ns) in
  let v = Dag.add_strand st.dag ~work in
  if st.source >= 0 then Dag.add_edge st.dag st.source v
  else Dag.set_root st.dag v;
  v

let open_strand st source =
  st.source <- source;
  st.strand_start <- now_ns ()

let scope f =
  ignore (get_state ());
  let sc = { pending_sync = -1 } in
  let close_phase () =
    if sc.pending_sync >= 0 then begin
      let st = get_state () in
      let s = close_strand st in
      Dag.mark_main_arrival st.dag s;
      Dag.add_edge st.dag s sc.pending_sync;
      open_strand st sc.pending_sync;
      sc.pending_sync <- -1
    end
  in
  match f sc with
  | v ->
    close_phase ();
    v
  | exception e ->
    close_phase ();
    raise e

let sync sc =
  ignore (get_state ());
  if sc.pending_sync >= 0 then begin
    let st = get_state () in
    let s = close_strand st in
    Dag.mark_main_arrival st.dag s;
    Dag.add_edge st.dag s sc.pending_sync;
    open_strand st sc.pending_sync;
    sc.pending_sync <- -1
  end

let spawn sc thunk =
  let st = get_state () in
  (* End the pre-spawn strand and insert the spawn vertex. *)
  let s = close_strand st in
  if sc.pending_sync < 0 then sc.pending_sync <- Dag.add_sync st.dag;
  let sp = Dag.add_spawn st.dag ~frame:sc.pending_sync in
  Dag.add_edge st.dag s sp;
  (* Child branch: the child edge must be the spawn's first successor. *)
  open_strand st sp;
  let p = Promise.make () in
  Promise.fill p (thunk ());
  let child_end = close_strand st in
  Dag.add_edge st.dag child_end sc.pending_sync;
  (* Continuation branch. *)
  open_strand st sp;
  p

let spawn_unit sc thunk = ignore (spawn sc thunk)

let get p = Promise.get ~runtime:name p
let await p = Promise.await ~runtime:name p

(* Pool routing under the recorder: like the serial elision, every name
   resolves to this one thread and [spawn_on] runs inline — routed tasks
   appear in the DAG as ordinary serial work on the recording strand. *)
type pool = string

let find_pool n = Some (n : pool)
let pool n = (n : pool)
let pool_name (p : pool) = p
let self_pool () = "main"

let spawn_on (_ : pool) thunk =
  let p = Promise.make () in
  (match thunk () with
  | v -> Promise.fill p v
  | exception e -> Promise.fill_exn p e);
  p

let spawn_unit_on (pl : pool) thunk =
  try thunk ()
  with e ->
    Nowa_runtime.Runtime_log.Log.err (fun m ->
        m "%s: spawn_unit_on %S task raised %s" name pl
          (Printexc.to_string e))

let last_metrics_ref = ref None
let last_metrics () = !last_metrics_ref

(* The recorder's product is the DAG itself; replay it through
   [Wsim.simulate ~trace] for a virtual-time event trace. *)
let last_trace () = None

let record main =
  Guard.enter name;
  (* Deterministic worker-0 context: span ledgers recorded under the
     recorder attribute every combine to worker 0, run after run. *)
  Nowa_trace.Current.set ~worker:0 Nowa_trace.Ring.disabled;
  Fun.protect
    ~finally:(fun () ->
      state := None;
      Nowa_trace.Current.clear ();
      Guard.exit ())
    (fun () ->
      (* A major collection mid-recording would be charged to whichever
         strand it interrupts and distort the critical path; start from a
         clean heap. *)
      Gc.full_major ();
      let st = { dag = Dag.create (); source = -1; strand_start = now_ns () } in
      state := Some st;
      let t0 = Unix.gettimeofday () in
      let r = main () in
      let final = close_strand st in
      Dag.set_final st.dag final;
      last := Some st.dag;
      last_metrics_ref :=
        Some
          (Nowa_runtime.Metrics.make
             [| Nowa_runtime.Metrics.make_worker 0 |]
             ~elapsed_s:(Unix.gettimeofday () -. t0));
      (st.dag, r))

let run ?conf main =
  ignore conf;
  snd (record main)

let last_dag () = !last
