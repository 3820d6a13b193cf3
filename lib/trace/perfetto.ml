(** Chrome trace-event / Perfetto JSON exporter.

    Emits the JSON object format ({"traceEvents":[...]}) that both
    chrome://tracing and ui.perfetto.dev load directly: one row (tid) per
    worker, task executions as complete slices ("ph":"X"), every other
    scheduler event as a thread-scoped instant ("ph":"i").  Timestamps
    are rebased to the earliest event and written in microseconds, as the
    format requires; virtual-time wsim traces go through unchanged (their
    "microseconds" are virtual too).

    No JSON library is needed: every value written is an int, a float or
    a fixed identifier-safe string, so the quoting below is total. *)

let buf_event b ~first ~name ~ph ~ts_us ~pid ~tid extra =
  if not !first then Buffer.add_string b ",\n";
  first := false;
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d%s}"
       name ph ts_us pid tid extra)

let buf_meta b ~first ~name ~pid ?tid value =
  if not !first then Buffer.add_string b ",\n";
  first := false;
  let tid = match tid with None -> "" | Some t -> Printf.sprintf ",\"tid\":%d" t in
  Buffer.add_string b
    (Printf.sprintf
       "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d%s,\"args\":{\"name\":\"%s\"}}"
       name pid tid value)

let us_of_ns ns = float_of_int ns /. 1e3

(* Render per-worker event arrays to a Buffer.  [process_name] labels
   the single process row ("nowa", "wsim:nowa/256w", ...); each worker's
   track takes the trace's name for it ({!Trace.name}: ["pool/0"] from a
   runtime, ["worker 0"] otherwise).  [counters] adds named counter
   tracks ("ph":"C") — e.g. the queue-depth-per-resource tracks of the
   convoy detector — rebased onto the same timeline as the events.
   Taking the event arrays apart from the trace lets the flight recorder
   export a frozen {!Trace.freeze} window through the same code path as
   a post-join drain. *)
let events_to_buffer ?(process_name = "nowa") ?(counters = []) (t : Trace.t)
    (per_worker : Event.t array array) =
  let b = Buffer.create 65536 in
  let first = ref true in
  let pid = 0 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  buf_meta b ~first ~name:"process_name" ~pid process_name;
  let t0 =
    Array.fold_left
      (fun acc evs ->
        if Array.length evs > 0 then Int.min acc evs.(0).Event.ts else acc)
      max_int per_worker
    |> fun m -> if m = max_int then 0 else m
  in
  Array.iteri
    (fun w evs ->
      if Array.length evs > 0 then
        buf_meta b ~first ~name:"thread_name" ~pid ~tid:w (Trace.name t w);
      (* Pair task-start/task-end into complete slices; a start lost to
         ring overwrite leaves its end unmatched, which we drop rather
         than emit a malformed slice. *)
      let open_start = ref None in
      (* Park/unpark pair the same way into "parked" slices, so the idle
         troughs are visible as filled spans rather than instant pairs. *)
      let open_park = ref None in
      Array.iter
        (fun e ->
          let ts_us = us_of_ns (e.Event.ts - t0) in
          match e.Event.kind with
          | Event.Task_start -> open_start := Some ts_us
          | Event.Task_end -> (
            match !open_start with
            | Some s ->
              open_start := None;
              buf_event b ~first ~name:"task" ~ph:"X" ~ts_us:s ~pid ~tid:w
                (Printf.sprintf ",\"dur\":%.3f" (Float.max 0.0 (ts_us -. s)))
            | None -> ())
          | Event.Park -> open_park := Some ts_us
          | Event.Unpark -> (
            match !open_park with
            | Some s ->
              open_park := None;
              buf_event b ~first ~name:"parked" ~ph:"X" ~ts_us:s ~pid ~tid:w
                (Printf.sprintf ",\"dur\":%.3f" (Float.max 0.0 (ts_us -. s)))
            | None ->
              buf_event b ~first ~name:"unpark" ~ph:"i" ~ts_us ~pid ~tid:w
                ",\"s\":\"t\"")
          | (Event.Req_submit | Event.Req_claim | Event.Req_apply) as k ->
            (* Request lifecycle: an instant for the station plus a flow
               event sharing id = rid, so Perfetto draws arrows
               submit -> claim -> apply across worker tracks. *)
            let rid = e.Event.arg2 in
            buf_event b ~first ~name:(Event.name k) ~ph:"i" ~ts_us ~pid ~tid:w
              (Printf.sprintf ",\"s\":\"t\",\"args\":{\"shard\":%d,\"req\":%d}"
                 e.Event.arg rid);
            let ph, extra =
              match k with
              | Event.Req_submit -> ("s", "")
              | Event.Req_claim -> ("t", "")
              | _ -> ("f", ",\"bp\":\"e\"")
            in
            (* Requests submitted from an untraced domain carry no id
               (-1): no flow to join. *)
            if rid >= 0 then
              buf_event b ~first ~name:"req" ~ph ~ts_us ~pid ~tid:w
                (Printf.sprintf ",\"cat\":\"req\",\"id\":%d%s" rid extra)
          | (Event.Req_handoff | Event.Req_done) as k ->
            buf_event b ~first ~name:(Event.name k) ~ph:"i" ~ts_us ~pid ~tid:w
              (Printf.sprintf ",\"s\":\"t\",\"args\":{\"shard\":%d,\"req\":%d}"
                 e.Event.arg e.Event.arg2)
          | k ->
            let args =
              match k with
              | Event.Steal_attempt | Event.Steal_commit | Event.Steal_abort ->
                Printf.sprintf ",\"s\":\"t\",\"args\":{\"victim\":%d}" e.Event.arg
              | _ -> ",\"s\":\"t\""
            in
            buf_event b ~first ~name:(Event.name k) ~ph:"i" ~ts_us ~pid ~tid:w
              args)
        evs)
    per_worker;
  List.iter
    (fun (name, samples) ->
      Array.iter
        (fun (ts, value) ->
          if not !first then Buffer.add_string b ",\n";
          first := false;
          Buffer.add_string b
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":%d,\"args\":{\"value\":%g}}"
               name
               (us_of_ns (ts - t0))
               pid value))
        samples)
    counters;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  b

let to_buffer ?process_name ?counters (t : Trace.t) =
  events_to_buffer ?process_name ?counters t (Trace.per_worker_events t)

let to_string ?process_name ?counters t =
  Buffer.contents (to_buffer ?process_name ?counters t)

let write_channel ?process_name ?counters oc t =
  Buffer.output_buffer oc (to_buffer ?process_name ?counters t)

let write_file ?process_name ?counters path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      write_channel ?process_name ?counters oc t)

(** Write a live {!Trace.freeze} window of [t] (the flight recorder's
    view of rings still being written) as a Perfetto JSON file. *)
let write_frozen_file ?window path t =
  let evs, _dropped = Trace.freeze ?window t in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      Buffer.output_buffer oc (events_to_buffer t evs))
