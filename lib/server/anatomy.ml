(** Tail-latency anatomy: turn a {!Nowa_trace.Span} collector into the
    per-phase quantile tables, conservation audit and tail-request
    timeline artifacts that explain {e where} a p999 went.

    All statistics are exact (sorted-array order statistics over every
    finished measured request), not interpolated — the collector already
    holds the full population, so there is no reason to approximate. *)

module Span = Nowa_trace.Span

type phase_stats = {
  phase : Span.phase;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  mean_ns : float;
  max_ns : int;
}

type class_anatomy = {
  label : string;  (* op-class name, or "total" *)
  count : int;
  phases : phase_stats array;
}

type tail_entry = {
  rid : int;
  t_label : string;
  total_ns : int;
  combined_by : int;
  sched_ns : int;  (* absolute scheduled arrival, for timeline export *)
  phase_ns : int array;  (* indexed like Span.phases *)
}

type t = {
  sampled : int;  (* finished measured requests *)
  dropped : int;  (* measured requests rejected by admission *)
  overflowed : int;  (* alloc requests past the collector capacity *)
  violations : int;  (* requests whose ledger missed end-to-end latency *)
  max_abs_err_ns : int;  (* worst conservation residual *)
  classes : class_anatomy list;  (* "total" first, then classes with traffic *)
  tail : tail_entry list;  (* slowest first *)
}

let q_exact q sorted =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let stats_of phase values =
  let arr = Array.of_list values in
  Array.sort compare arr;
  let n = Array.length arr in
  {
    phase;
    p50_ns = q_exact 0.5 arr;
    p99_ns = q_exact 0.99 arr;
    p999_ns = q_exact 0.999 arr;
    mean_ns =
      (if n = 0 then 0.0
       else float_of_int (Array.fold_left ( + ) 0 arr) /. float_of_int n);
    max_ns = (if n = 0 then 0 else arr.(n - 1));
  }

let class_label i =
  if i >= 0 && i < Array.length Workload.classes then
    Workload.class_name Workload.classes.(i)
  else Printf.sprintf "class%d" i

(** Measured requests only: warmup traffic moves the store but must not
    shift the quantiles. *)
let of_span (span : Span.t) : t =
  let n = Span.allocated span in
  let nclasses = Array.length Workload.classes in
  (* bucket -1 = total; 0..nclasses-1 = per class *)
  let acc = Array.make_matrix (nclasses + 1) Span.n_phases [] in
  let counts = Array.make (nclasses + 1) 0 in
  let sampled = ref 0 and drops = ref 0 in
  let violations = ref 0 and max_err = ref 0 in
  let tail_rids = Span.tail_entries span in
  for rid = 0 to n - 1 do
    if Span.measured span rid then
      if Span.was_dropped span rid then incr drops
      else if Span.finished span rid then begin
        incr sampled;
        let err = abs (Span.conservation_error span rid) in
        if err > 0 then incr violations;
        if err > !max_err then max_err := err;
        let c = Span.cls_of span rid in
        let c = if c >= 0 && c < nclasses then c else 0 in
        counts.(0) <- counts.(0) + 1;
        counts.(c + 1) <- counts.(c + 1) + 1;
        Array.iteri
          (fun p phase ->
            let v = Span.phase_ns span rid phase in
            acc.(0).(p) <- v :: acc.(0).(p);
            acc.(c + 1).(p) <- v :: acc.(c + 1).(p))
          Span.phases
      end
  done;
  let mk label b =
    {
      label;
      count = counts.(b);
      phases = Array.mapi (fun p phase -> stats_of phase acc.(b).(p)) Span.phases;
    }
  in
  let classes =
    mk "total" 0
    :: (List.init nclasses (fun c -> mk (class_label c) (c + 1))
       |> List.filter (fun ca -> ca.count > 0))
  in
  let tail =
    List.map
      (fun (rid, lat) ->
        {
          rid;
          t_label = class_label (Span.cls_of span rid);
          total_ns = lat;
          combined_by = Span.combiner_of span rid;
          sched_ns = Span.sched_ns span rid;
          phase_ns = Array.map (Span.phase_ns span rid) Span.phases;
        })
      tail_rids
  in
  {
    sampled = !sampled;
    dropped = !drops;
    overflowed = Span.overflowed span;
    violations = !violations;
    max_abs_err_ns = !max_err;
    classes;
    tail;
  }

(* -- rendering ------------------------------------------------------------- *)

let us ns = float_of_int ns /. 1e3

let pp (a : t) =
  Printf.printf
    "anatomy: sampled=%d dropped=%d overflow=%d conservation: violations=%d \
     max_err=%dns\n"
    a.sampled a.dropped a.overflowed a.violations a.max_abs_err_ns;
  List.iter
    (fun ca ->
      Printf.printf "  [%s] n=%d\n" ca.label ca.count;
      Nowa_util.Table.print
        ~header:[ "phase"; "p50 us"; "p99 us"; "p999 us"; "mean us"; "max us" ]
        (Array.to_list
           (Array.map
              (fun (s : phase_stats) ->
                [
                  Span.phase_name s.phase;
                  Printf.sprintf "%.1f" (us s.p50_ns);
                  Printf.sprintf "%.1f" (us s.p99_ns);
                  Printf.sprintf "%.1f" (us s.p999_ns);
                  Printf.sprintf "%.1f" (s.mean_ns /. 1e3);
                  Printf.sprintf "%.1f" (us s.max_ns);
                ])
              ca.phases)))
    a.classes;
  match a.tail with
  | [] -> ()
  | tail ->
    Printf.printf "  slowest sampled requests:\n";
    Nowa_util.Table.print
      ~header:
        ([ "rid"; "op"; "total us"; "by" ]
        @ Array.to_list (Array.map Span.phase_name Span.phases))
      (List.map
         (fun e ->
           [
             string_of_int e.rid;
             e.t_label;
             Printf.sprintf "%.1f" (us e.total_ns);
             string_of_int e.combined_by;
           ]
           @ Array.to_list
               (Array.map (fun ns -> Printf.sprintf "%.1f" (us ns)) e.phase_ns))
         (List.filteri (fun i _ -> i < 10) tail))

let json (a : t) =
  let b = Buffer.create 2048 in
  Printf.bprintf b
    "{\"sampled\": %d, \"dropped\": %d, \"overflow\": %d, \"violations\": %d, \
     \"max_abs_err_ns\": %d, \"phases\": {"
    a.sampled a.dropped a.overflowed a.violations a.max_abs_err_ns;
  List.iteri
    (fun i ca ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"count\": %d" ca.label ca.count;
      Array.iter
        (fun (s : phase_stats) ->
          Printf.bprintf b
            ", \"%s\": {\"p50_ns\": %d, \"p99_ns\": %d, \"p999_ns\": %d, \
             \"mean_ns\": %.1f, \"max_ns\": %d}"
            (Span.phase_name s.phase) s.p50_ns s.p99_ns s.p999_ns s.mean_ns
            s.max_ns)
        ca.phases;
      Buffer.add_string b "}")
    a.classes;
  Buffer.add_string b "}, \"tail\": [";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b
        "{\"rid\": %d, \"op\": \"%s\", \"total_ns\": %d, \"combined_by\": %d"
        e.rid e.t_label e.total_ns e.combined_by;
      Array.iteri
        (fun p ns ->
          Printf.bprintf b ", \"%s_ns\": %d"
            (Span.phase_name Span.phases.(p))
            ns)
        e.phase_ns;
      Buffer.add_string b "}")
    a.tail;
  Buffer.add_string b "]}";
  Buffer.contents b

(** Perfetto timeline of the tail reservoir: one track per sampled
    request, its phases laid end to end from the scheduled arrival.
    Because the ledger telescopes, the slices tile the request's
    end-to-end window exactly — gaps would be accounting bugs and would
    be visible. *)
let write_tail_perfetto path (a : t) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let b = Buffer.create 4096 in
      Buffer.add_string b "{\"traceEvents\":[\n";
      let first = ref true in
      let sep () =
        if not !first then Buffer.add_string b ",\n";
        first := false
      in
      sep ();
      Buffer.add_string b
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"serve tail anatomy\"}}";
      let t0 =
        List.fold_left (fun acc e -> min acc e.sched_ns) max_int a.tail
      in
      let t0 = if t0 = max_int then 0 else t0 in
      List.iteri
        (fun tid e ->
          sep ();
          Printf.bprintf b
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"req %d %s %.1fus w%d\"}}"
            tid e.rid e.t_label (us e.total_ns) e.combined_by;
          let cursor = ref (e.sched_ns - t0) in
          Array.iteri
            (fun p ns ->
              if ns > 0 then begin
                sep ();
                Printf.bprintf b
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"req\":%d}}"
                  (Span.phase_name Span.phases.(p))
                  (float_of_int !cursor /. 1e3)
                  (float_of_int ns /. 1e3)
                  tid e.rid;
                cursor := !cursor + ns
              end)
            e.phase_ns)
        a.tail;
      Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
      Buffer.output_buffer oc b)

(** Push every sampled request's phase times into the
    [nowa_serve_phase_*_ns] registry histograms. *)
let publish (span : Span.t) =
  let n = Span.allocated span in
  for rid = 0 to n - 1 do
    if Span.measured span rid && Span.finished span rid then
      Array.iteri
        (fun p phase -> Serve_metrics.observe_phase p (Span.phase_ns span rid phase))
        Span.phases
  done
