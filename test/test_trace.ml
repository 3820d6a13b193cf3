(* Tests for the lib/trace subsystem: ring-buffer semantics, disabled
   mode, multi-domain emission through the real engines, the Perfetto
   exporter (golden JSON check via a self-contained parser — no JSON
   library in the package set), the analysis summaries, and virtual-time
   traces out of the wsim simulator. *)

module Ev = Nowa_trace.Event
module Ring = Nowa_trace.Ring
module Trace = Nowa_trace.Trace
module Perfetto = Nowa_trace.Perfetto
module Analysis = Nowa_trace.Trace_analysis

(* -- ring buffer ------------------------------------------------------ *)

let test_ring_basic () =
  let r = Ring.create ~capacity:16 in
  Alcotest.(check int) "capacity rounded" 16 (Ring.capacity r);
  Ring.emit_at r ~ts:10 Ev.Task_start 0;
  Ring.emit_at r ~ts:20 Ev.Spawn 0;
  Ring.emit_at r ~ts:30 Ev.Task_end 0;
  Alcotest.(check int) "length" 3 (Ring.length r);
  Alcotest.(check int) "dropped" 0 (Ring.dropped r);
  let evs = Ring.events r ~worker:7 in
  Alcotest.(check int) "drained" 3 (Array.length evs);
  Alcotest.(check int) "ts order" 10 evs.(0).Ev.ts;
  Alcotest.(check int) "worker stamped" 7 evs.(1).Ev.worker;
  Alcotest.(check bool) "kind roundtrip" true (evs.(1).Ev.kind = Ev.Spawn)

let test_ring_capacity_rounding () =
  (* Capacities round up to a power of two, floored at 16. *)
  Alcotest.(check int) "floor" 16 (Ring.capacity (Ring.create ~capacity:3));
  Alcotest.(check int) "round up" 64 (Ring.capacity (Ring.create ~capacity:33));
  Alcotest.(check int) "exact" 128 (Ring.capacity (Ring.create ~capacity:128))

let test_ring_wraparound () =
  let r = Ring.create ~capacity:16 in
  for i = 1 to 40 do
    Ring.emit_at r ~ts:i Ev.Spawn i
  done;
  Alcotest.(check int) "length capped" 16 (Ring.length r);
  Alcotest.(check int) "emitted total" 40 (Ring.emitted r);
  Alcotest.(check int) "dropped = overwritten oldest" 24 (Ring.dropped r);
  let evs = Ring.events r ~worker:0 in
  Alcotest.(check int) "drained length" 16 (Array.length evs);
  (* Overwrite-oldest: the survivors are exactly the newest 16, in order. *)
  Array.iteri
    (fun j e ->
      Alcotest.(check int) "newest survive in order" (25 + j) e.Ev.ts;
      Alcotest.(check int) "args follow" (25 + j) e.Ev.arg)
    evs

let test_ring_disabled () =
  let r = Ring.disabled in
  for i = 1 to 1000 do
    Ring.emit_at r ~ts:i Ev.Task_start 0;
    Ring.emit r Ev.Spawn 0
  done;
  Alcotest.(check int) "no events" 0 (Ring.length r);
  Alcotest.(check int) "no drops" 0 (Ring.dropped r);
  Alcotest.(check int) "capacity 0" 0 (Ring.capacity r);
  Alcotest.(check int) "drain empty" 0 (Array.length (Ring.events r ~worker:0));
  (* A zero/negative requested capacity also yields a disabled ring. *)
  Alcotest.(check int) "create 0 disabled" 0 (Ring.capacity (Ring.create ~capacity:0))

let test_ring_emit_wall_clock_monotone () =
  let r = Ring.create ~capacity:64 in
  for _ = 1 to 50 do
    Ring.emit r Ev.Spawn 0
  done;
  let evs = Ring.events r ~worker:0 in
  let ok = ref true in
  for i = 1 to Array.length evs - 1 do
    if evs.(i).Ev.ts < evs.(i - 1).Ev.ts then ok := false
  done;
  Alcotest.(check bool) "wall timestamps non-decreasing" true !ok

let test_ring_arg2 () =
  let r = Ring.create ~capacity:16 in
  Ring.emit_at2 r ~ts:10 Ev.Req_submit 3 41;
  Ring.emit2 r Ev.Req_claim 3 41;
  (* The 3-arg entry points still work and stamp arg2 = 0. *)
  Ring.emit_at r ~ts:30 Ev.Spawn 7;
  let evs = Ring.events r ~worker:0 in
  Alcotest.(check int) "arg2 roundtrip" 41 evs.(0).Ev.arg2;
  Alcotest.(check int) "arg kept" 3 evs.(0).Ev.arg;
  Alcotest.(check int) "emit2 arg2" 41 evs.(1).Ev.arg2;
  Alcotest.(check int) "legacy emit arg2 = 0" 0 evs.(2).Ev.arg2;
  Alcotest.(check bool) "req kind roundtrip" true
    (evs.(1).Ev.kind = Ev.Req_claim)

let test_event_pp () =
  (* Chronological dump format: ts first, then worker, both args. *)
  let e = { Ev.ts = 1500; worker = 3; kind = Ev.Req_submit; arg = 2; arg2 = 42 } in
  Alcotest.(check string) "pp order" "1500ns w3 req-submit(2,42)"
    (Format.asprintf "%a" Ev.pp e);
  let e2 = { Ev.ts = 7; worker = 0; kind = Ev.Spawn; arg = 0; arg2 = 0 } in
  Alcotest.(check string) "pp scheduler event" "7ns w0 spawn(0,0)"
    (Format.asprintf "%a" Ev.pp e2)

let test_current_context () =
  Alcotest.(check int) "no context = worker -1" (-1)
    (Nowa_trace.Current.worker ());
  (* Emission without a context is a no-op, not a crash. *)
  Nowa_trace.Current.emit Ev.Req_submit ~arg:0 ~arg2:9;
  let r = Ring.create ~capacity:16 in
  Nowa_trace.Current.set ~worker:5 r;
  Alcotest.(check int) "worker visible" 5 (Nowa_trace.Current.worker ());
  Nowa_trace.Current.emit Ev.Req_claim ~arg:1 ~arg2:7;
  Nowa_trace.Current.clear ();
  Nowa_trace.Current.emit Ev.Req_claim ~arg:1 ~arg2:8;
  Alcotest.(check int) "cleared context stops emission" 1 (Ring.length r);
  let evs = Ring.events r ~worker:5 in
  Alcotest.(check int) "emitted through context" 7 evs.(0).Ev.arg2

(* -- trace container -------------------------------------------------- *)

let test_trace_container () =
  let t = Trace.create ~workers:3 ~capacity:16 () in
  Alcotest.(check int) "workers" 3 (Trace.workers t);
  Ring.emit_at (Trace.worker t 0) ~ts:30 Ev.Task_start 0;
  Ring.emit_at (Trace.worker t 2) ~ts:10 Ev.Task_start 0;
  Ring.emit_at (Trace.worker t 2) ~ts:40 Ev.Task_end 0;
  (* Out-of-range workers get the disabled ring, not an exception. *)
  Ring.emit_at (Trace.worker t 99) ~ts:5 Ev.Spawn 0;
  Ring.emit_at (Trace.worker t (-1)) ~ts:5 Ev.Spawn 0;
  Alcotest.(check int) "emitted" 3 (Trace.emitted t);
  let all = Trace.events t in
  Alcotest.(check int) "merged" 3 (Array.length all);
  Alcotest.(check int) "sorted by ts" 10 all.(0).Ev.ts;
  Alcotest.(check int) "base ts" 10 (Trace.base_ts t);
  let per = Trace.per_worker_events t in
  Alcotest.(check int) "w0 events" 1 (Array.length per.(0));
  Alcotest.(check int) "w1 empty" 0 (Array.length per.(1));
  Alcotest.(check int) "w2 events" 2 (Array.length per.(2))

(* -- multi-domain emission through the real engines ------------------- *)

let rec fib (module R : Nowa.RUNTIME) n =
  if n < 2 then n
  else
    R.scope (fun sc ->
        let a = R.spawn sc (fun () -> fib (module R) (n - 1)) in
        let b = fib (module R) (n - 2) in
        R.sync sc;
        R.get a + b)

let rec sfib n = if n < 2 then n else sfib (n - 1) + sfib (n - 2)

let run_traced (module R : Nowa.RUNTIME) ~workers n =
  let conf =
    { (Nowa.Config.with_workers workers) with Nowa.Config.trace_capacity = 4096 }
  in
  let v = R.run ~conf (fun () -> fib (module R) n) in
  Alcotest.(check int) "result" (sfib n) v;
  match R.last_trace () with
  | Some tr -> tr
  | None -> Alcotest.fail (R.name ^ ": no trace despite trace_capacity > 0")

let engines : (module Nowa.RUNTIME) list =
  [
    (module Nowa.Presets.Nowa);
    (module Nowa.Presets.Tbb);
    (module Nowa.Presets.Gomp);
  ]

let test_multi_domain_emission () =
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let tr = run_traced (module R) ~workers:4 18 in
      Alcotest.(check int) "one ring per worker" 4 (Trace.workers tr);
      Alcotest.(check bool)
        (R.name ^ ": events were emitted")
        true
        (Trace.emitted tr > 0);
      (* Per-worker ordering: each worker's drained stream must be
         non-decreasing in time (single writer + monotonic clamp). *)
      Array.iter
        (fun evs ->
          let ok = ref true in
          for i = 1 to Array.length evs - 1 do
            if evs.(i).Ev.ts < evs.(i - 1).Ev.ts then ok := false
          done;
          Alcotest.(check bool) (R.name ^ ": per-worker ordered") true !ok)
        (Trace.per_worker_events tr);
      (* More than one worker must have participated. *)
      let active =
        Array.fold_left
          (fun acc evs -> if Array.length evs > 0 then acc + 1 else acc)
          0 (Trace.per_worker_events tr)
      in
      Alcotest.(check bool) (R.name ^ ": >1 worker traced") true (active > 1))
    engines

let test_disabled_is_default () =
  let (module R : Nowa.RUNTIME) = (module Nowa.Presets.Nowa) in
  let conf = Nowa.Config.with_workers 2 in
  ignore (R.run ~conf (fun () -> fib (module R) 10));
  Alcotest.(check bool) "no trace by default" true (R.last_trace () = None)

let test_trace_events_against_metrics () =
  (* The trace and the aggregate counters must tell the same story on
     every preset (rings large enough not to drop): every station that
     traces bumps its counter and emits its event in one call, so each
     row of [Metrics.table] with an event must count exactly its events.
     A committed grab is one steal on every preset, so steals never
     exceed attempts. *)
  let checked = ref 0 in
  List.iter
    (fun (module R : Nowa.RUNTIME) ->
      let conf =
        { (Nowa.Config.with_workers 2) with Nowa.Config.trace_capacity = 1 lsl 16 }
      in
      ignore (R.run ~conf (fun () -> fib (module R) 15));
      let tr = Option.get (R.last_trace ()) in
      let label what = R.name ^ ": " ^ what in
      Alcotest.(check int) (label "nothing dropped") 0 (Trace.dropped tr);
      let m = Option.get (R.last_metrics ()) in
      let total = Nowa.Metrics.total m in
      let events = Trace.events tr in
      let count ?arg kind =
        Array.fold_left
          (fun acc e ->
            if e.Ev.kind = kind && Option.fold ~none:true ~some:(( = ) e.Ev.arg) arg
            then acc + 1
            else acc)
          0 events
      in
      Array.iter
        (fun (r : Nowa.Metrics.row) ->
          Option.iter
            (fun ev ->
              Alcotest.(check int)
                (label (Ev.name ev ^ " events = " ^ r.label))
                (total r.kind) (count ev))
            r.event)
        Nowa.Metrics.table;
      Alcotest.(check int) (label "inline spawn events = inlined_spawns")
        (total Inlined) (count ~arg:1 Ev.Spawn);
      let steals = total Steals and attempts = total Steal_attempts in
      if steals > attempts then
        Alcotest.failf "%s: %d steals against %d steal attempts" R.name steals
          attempts;
      incr checked)
    Nowa.Presets.all;
  Alcotest.(check int) "presets checked" 9 !checked

(* -- a minimal JSON parser for the golden exporter check --------------- *)

(* The package set has no JSON library, so the golden check carries its
   own reader: a complete (objects/arrays/strings/numbers/atoms) but
   minimal JSON recursive-descent parser.  Any exporter output a real
   consumer would reject fails here first. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      then begin
        advance ();
        skip_ws ()
      end
    in
    let expect c =
      skip_ws ();
      if peek () <> c then
        raise (Bad (Printf.sprintf "expected %c at %d, got %c" c !pos (peek ())));
      advance ()
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          let c = peek () in
          advance ();
          (match c with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
            (* \uXXXX: keep the raw hex; the exporter never emits these. *)
            for _ = 1 to 4 do
              advance ()
            done
          | c -> Buffer.add_char b c);
          go ()
        | c ->
          advance ();
          Buffer.add_char b c;
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && is_num s.[!pos] do
        advance ()
      done;
      if !pos = start then raise (Bad "empty number");
      Num (float_of_string (String.sub s start (!pos - start)))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            let k = (skip_ws (); parse_string ()) in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              members ((k, v) :: acc)
            | '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | c -> raise (Bad (Printf.sprintf "in object: %c" c))
          in
          Obj (members [])
        end
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              elements (v :: acc)
            | ']' ->
              advance ();
              List.rev (v :: acc)
            | c -> raise (Bad (Printf.sprintf "in array: %c" c))
          in
          List (elements [])
        end
      | '"' -> Str (parse_string ())
      | 't' ->
        pos := !pos + 4;
        Bool true
      | 'f' ->
        pos := !pos + 5;
        Bool false
      | 'n' ->
        pos := !pos + 4;
        Null
      | _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad (Printf.sprintf "trailing input at %d" !pos));
    v

  let member k = function
    | Obj kvs -> List.assoc k kvs
    | _ -> raise (Bad ("not an object looking up " ^ k))

  let member_opt k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

let test_perfetto_golden () =
  (* A hand-built two-worker trace with known slices and instants. *)
  let t = Trace.create ~workers:2 ~capacity:16 () in
  let w0 = Trace.worker t 0 and w1 = Trace.worker t 1 in
  Ring.emit_at w0 ~ts:1_000 Ev.Task_start 0;
  Ring.emit_at w0 ~ts:2_000 Ev.Spawn 0;
  Ring.emit_at w0 ~ts:5_000 Ev.Task_end 0;
  Ring.emit_at w1 ~ts:2_500 Ev.Steal_attempt 0;
  Ring.emit_at w1 ~ts:3_000 Ev.Steal_commit 0;
  Ring.emit_at w1 ~ts:3_100 Ev.Task_start 0;
  Ring.emit_at w1 ~ts:4_100 Ev.Task_end 0;
  let s = Perfetto.to_string ~process_name:"golden" t in
  let json = Json.parse s in
  let evs =
    match Json.member "traceEvents" json with
    | Json.List l -> l
    | _ -> Alcotest.fail "traceEvents is not an array"
  in
  (* 2 metadata thread names + 1 process name + 2 slices + 3 instants. *)
  Alcotest.(check int) "event count" 8 (List.length evs);
  let slices =
    List.filter (fun e -> Json.member "ph" e = Json.Str "X") evs
  in
  Alcotest.(check int) "two task slices" 2 (List.length slices);
  let slice_of tid =
    List.find
      (fun e -> Json.member "tid" e = Json.Num (float_of_int tid))
      slices
  in
  (* Timestamps are rebased to the earliest event (1000 ns) and written
     in microseconds: w0's slice starts at 0 us and lasts 4 us. *)
  Alcotest.(check bool) "w0 slice ts" true
    (Json.member "ts" (slice_of 0) = Json.Num 0.0);
  Alcotest.(check bool) "w0 slice dur" true
    (Json.member "dur" (slice_of 0) = Json.Num 4.0);
  Alcotest.(check bool) "w1 slice ts" true
    (Json.member "ts" (slice_of 1) = Json.Num 2.1);
  let commit =
    List.find (fun e -> Json.member "name" e = Json.Str "steal-commit") evs
  in
  (match Json.member_opt "args" commit with
  | Some args ->
    Alcotest.(check bool) "victim recorded" true
      (Json.member "victim" args = Json.Num 0.0)
  | None -> Alcotest.fail "steal-commit has no args");
  let pname =
    List.find (fun e -> Json.member "name" e = Json.Str "process_name") evs
  in
  Alcotest.(check bool) "process name" true
    (Json.member "name" (Json.member "args" pname) = Json.Str "golden")

let test_perfetto_real_run_parses () =
  let tr = run_traced (module Nowa.Presets.Nowa) ~workers:4 16 in
  let s = Perfetto.to_string tr in
  match Json.parse s with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "exporter did not produce a JSON object"
  | exception Json.Bad m -> Alcotest.fail ("exporter JSON rejected: " ^ m)

let test_perfetto_unmatched_end_dropped () =
  (* A task-end whose start was overwritten must not produce a slice. *)
  let t = Trace.create ~workers:1 ~capacity:16 () in
  let w0 = Trace.worker t 0 in
  Ring.emit_at w0 ~ts:100 Ev.Task_end 0;
  Ring.emit_at w0 ~ts:200 Ev.Task_start 0;
  Ring.emit_at w0 ~ts:300 Ev.Task_end 0;
  let json = Json.parse (Perfetto.to_string t) in
  let evs =
    match Json.member "traceEvents" json with Json.List l -> l | _ -> []
  in
  let slices = List.filter (fun e -> Json.member "ph" e = Json.Str "X") evs in
  Alcotest.(check int) "one well-formed slice" 1 (List.length slices)

let test_nested_task_slices () =
  (* A help-first waiter's task (0..1000 ns) runs a helped task
     (300..500) inside its slice: the exported slices nest, and busy
     time counts the outer slice once. *)
  let t = Trace.create ~workers:1 ~capacity:16 () in
  List.iter
    (fun (ts, k) -> Ring.emit_at (Trace.worker t 0) ~ts k 0)
    [ (0, Ev.Task_start); (200, Ev.Suspend); (300, Ev.Task_start);
      (500, Ev.Task_end); (1_000, Ev.Task_end) ];
  let slices =
    match Json.member "traceEvents" (Json.parse (Perfetto.to_string t)) with
    | Json.List l ->
      List.filter_map
        (fun e ->
          match (Json.member_opt "dur" e, Json.member_opt "ts" e) with
          | Some (Json.Num dur), Some (Json.Num ts) -> Some (ts, dur)
          | _ -> None)
        l
    | _ -> []
  in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "inner slice inside the outer" [ (0.0, 1.0); (0.3, 0.2) ]
    (List.sort Stdlib.compare slices);
  let w = (Analysis.summarize t).Analysis.workers.(0) in
  Alcotest.(check int) "both tasks counted" 2 (Analysis.count w Ev.Task_start);
  Alcotest.(check int) "busy is the outer slice" 1_000 w.Analysis.busy_ns;
  Alcotest.(check int) "no idle gap inside it" 0 (List.length w.Analysis.idle_gaps_ns)

let test_perfetto_req_flow () =
  (* Request lifecycle events become instants plus s/t/f flow events that
     share id = rid, so Perfetto draws arrows across worker tracks. *)
  let t = Trace.create ~workers:2 ~capacity:16 () in
  let w0 = Trace.worker t 0 and w1 = Trace.worker t 1 in
  let rid = 42 in
  Ring.emit_at2 w0 ~ts:1_000 Ev.Req_submit 3 rid;
  Ring.emit_at2 w1 ~ts:2_000 Ev.Req_claim 3 rid;
  Ring.emit_at2 w1 ~ts:2_500 Ev.Req_apply 3 rid;
  Ring.emit_at2 w0 ~ts:3_000 Ev.Req_done 0 rid;
  (* A request submitted from an untraced domain has no id (-1): its
     stations stay instants, with no flow to join. *)
  Ring.emit_at2 w1 ~ts:3_500 Ev.Req_claim 1 (-1);
  Ring.emit_at2 w1 ~ts:3_600 Ev.Req_apply 1 (-1);
  let json = Json.parse (Perfetto.to_string t) in
  let evs =
    match Json.member "traceEvents" json with
    | Json.List l -> l
    | _ -> Alcotest.fail "traceEvents is not an array"
  in
  let flows =
    List.filter (fun e -> Json.member_opt "cat" e = Some (Json.Str "req")) evs
  in
  Alcotest.(check int) "submit/claim/apply each get a flow event" 3
    (List.length flows);
  let flow_ph ph =
    List.find_opt (fun e -> Json.member "ph" e = Json.Str ph) flows
  in
  List.iter
    (fun ph ->
      match flow_ph ph with
      | None -> Alcotest.fail ("missing flow phase " ^ ph)
      | Some f ->
        Alcotest.(check bool)
          ("flow " ^ ph ^ " carries rid as id")
          true
          (Json.member "id" f = Json.Num (float_of_int rid)))
    [ "s"; "t"; "f" ];
  (* The terminating flow event binds to the enclosing slice's end. *)
  (match flow_ph "f" with
  | Some f ->
    Alcotest.(check bool) "f has bp=e" true
      (Json.member_opt "bp" f = Some (Json.Str "e"))
  | None -> ());
  (* Station instants keep shard and request id readable in the UI. *)
  let claim =
    List.find (fun e -> Json.member "name" e = Json.Str "req-claim") evs
  in
  (match Json.member_opt "args" claim with
  | Some args ->
    Alcotest.(check bool) "claim shard arg" true
      (Json.member "shard" args = Json.Num 3.0);
    Alcotest.(check bool) "claim req arg" true
      (Json.member "req" args = Json.Num (float_of_int rid))
  | None -> Alcotest.fail "req-claim instant has no args");
  let dones =
    List.filter (fun e -> Json.member "name" e = Json.Str "req-done") evs
  in
  Alcotest.(check int) "req-done stays a plain instant" 1 (List.length dones);
  let claims =
    List.filter (fun e -> Json.member "name" e = Json.Str "req-claim") evs
  in
  Alcotest.(check int) "an unnamed request keeps its instants" 2
    (List.length claims)

(* -- analysis ---------------------------------------------------------- *)

let test_analysis_synthetic () =
  (* w0 works 0..1000 then idles; w1 idles, steals at 600, works 600..1000.
     Span is 0..1000. *)
  let t = Trace.create ~workers:2 ~capacity:64 () in
  let w0 = Trace.worker t 0 and w1 = Trace.worker t 1 in
  Ring.emit_at w0 ~ts:0 Ev.Task_start 0;
  Ring.emit_at w0 ~ts:500 Ev.Spawn 0;
  Ring.emit_at w0 ~ts:1_000 Ev.Task_end 0;
  Ring.emit_at w1 ~ts:100 Ev.Steal_attempt 0;
  Ring.emit_at w1 ~ts:150 Ev.Steal_abort 0;
  Ring.emit_at w1 ~ts:600 Ev.Steal_commit 0;
  Ring.emit_at w1 ~ts:600 Ev.Task_start 0;
  Ring.emit_at w1 ~ts:1_000 Ev.Task_end 0;
  let a = Analysis.summarize t in
  Alcotest.(check int) "span" 1_000 a.Analysis.span_ns;
  Alcotest.(check int) "busy total" 1_400 a.Analysis.busy_ns;
  let w0s = a.Analysis.workers.(0) and w1s = a.Analysis.workers.(1) in
  Alcotest.(check int) "w0 busy" 1_000 w0s.Analysis.busy_ns;
  Alcotest.(check int) "w1 busy" 400 w1s.Analysis.busy_ns;
  Alcotest.(check bool) "w0 util 100%" true (Float.abs (w0s.Analysis.utilization -. 1.0) < 1e-9);
  Alcotest.(check bool) "w1 util 40%" true (Float.abs (w1s.Analysis.utilization -. 0.4) < 1e-9);
  Alcotest.(check int) "w1 tasks" 1 (Analysis.count w1s Ev.Task_start);
  Alcotest.(check int) "w0 spawns" 1 (Analysis.count w0s Ev.Spawn);
  (* Steal latency: w1 idle from its first attempt (100) to commit (600). *)
  (match w1s.Analysis.steal_latencies_ns with
  | [ l ] -> Alcotest.(check bool) "latency 500" true (Float.abs (l -. 500.0) < 1e-9)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 latency, got %d" (List.length l)));
  Alcotest.(check bool) "p50 = only sample" true
    (Float.abs (a.Analysis.steal_p50_ns -. 500.0) < 1e-9)

let test_analysis_real_run_sane () =
  let tr = run_traced (module Nowa.Presets.Nowa) ~workers:4 18 in
  let a = Analysis.summarize tr in
  Alcotest.(check bool) "span positive" true (a.Analysis.span_ns > 0);
  Alcotest.(check bool) "utilization in (0,1]" true
    (a.Analysis.utilization > 0.0 && a.Analysis.utilization <= 1.0 +. 1e-9);
  Array.iter
    (fun (w : Analysis.worker_summary) ->
      Alcotest.(check bool) "worker util in [0,1]" true
        (w.Analysis.utilization >= 0.0 && w.Analysis.utilization <= 1.0 +. 1e-9))
    a.Analysis.workers

(* -- wsim virtual-time traces ----------------------------------------- *)

let test_wsim_trace () =
  let dag, _ =
    Nowa_dag.Recorder.record (fun () -> fib (module Nowa_dag.Recorder) 15)
  in
  let workers = 8 in
  let tr =
    Trace.create ~clock:Trace.Virtual ~workers ~capacity:65_536 ()
  in
  let r = Nowa_dag.Wsim.simulate ~trace:tr Nowa_dag.Cost_model.nowa ~workers dag in
  Alcotest.(check bool) "sim completed" true (not r.Nowa_dag.Wsim.truncated);
  Alcotest.(check bool) "events recorded" true (Trace.emitted tr > 0);
  (* Task slices live within the makespan (steal attempts queued past the
     last completion may legitimately trail it); all virtual timestamps
     are non-negative. *)
  let makespan = int_of_float r.Nowa_dag.Wsim.makespan_ns + 1 in
  Array.iter
    (Array.iter (fun e ->
         Alcotest.(check bool) "ts non-negative" true (e.Ev.ts >= 0);
         match e.Ev.kind with
         | Ev.Task_start | Ev.Task_end ->
           Alcotest.(check bool) "task slice within makespan" true
             (e.Ev.ts <= makespan)
         | _ -> ()))
    (Trace.per_worker_events tr);
  (* The same exporter consumes it. *)
  (match Json.parse (Perfetto.to_string ~process_name:"wsim" tr) with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "wsim trace JSON not an object");
  (* And the trace agrees with the simulator's own steal count. *)
  let commits =
    Array.fold_left
      (fun acc w -> acc + Analysis.count w Ev.Steal_commit)
      0 (Analysis.summarize tr).Analysis.workers
  in
  Alcotest.(check int) "steal commits = sim steals" r.Nowa_dag.Wsim.steals commits;
  (* Untraced simulation of the same DAG is unaffected (same makespan:
     tracing must not perturb virtual time). *)
  let r' = Nowa_dag.Wsim.simulate Nowa_dag.Cost_model.nowa ~workers dag in
  Alcotest.(check bool) "tracing does not change the schedule" true
    (Float.abs (r.Nowa_dag.Wsim.makespan_ns -. r'.Nowa_dag.Wsim.makespan_ns) < 1e-6)

let () =
  Alcotest.run "nowa_trace"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "capacity rounding" `Quick test_ring_capacity_rounding;
          Alcotest.test_case "wraparound overwrites oldest" `Quick test_ring_wraparound;
          Alcotest.test_case "disabled is a no-op" `Quick test_ring_disabled;
          Alcotest.test_case "wall clock monotone" `Quick test_ring_emit_wall_clock_monotone;
          Alcotest.test_case "arg2 roundtrip" `Quick test_ring_arg2;
          Alcotest.test_case "event pp format" `Quick test_event_pp;
          Alcotest.test_case "current context" `Quick test_current_context;
        ] );
      ("trace", [ Alcotest.test_case "container" `Quick test_trace_container ]);
      ( "engines",
        [
          Alcotest.test_case "multi-domain per-worker ordering" `Quick
            test_multi_domain_emission;
          Alcotest.test_case "disabled by default" `Quick test_disabled_is_default;
          Alcotest.test_case "events match metrics" `Quick
            test_trace_events_against_metrics;
        ] );
      ( "perfetto",
        [
          Alcotest.test_case "golden JSON" `Quick test_perfetto_golden;
          Alcotest.test_case "real run parses" `Quick test_perfetto_real_run_parses;
          Alcotest.test_case "unmatched end dropped" `Quick
            test_perfetto_unmatched_end_dropped;
          Alcotest.test_case "request flow events" `Quick test_perfetto_req_flow;
          Alcotest.test_case "nested task slices" `Quick test_nested_task_slices;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "synthetic" `Quick test_analysis_synthetic;
          Alcotest.test_case "real run sane" `Quick test_analysis_real_run_sane;
        ] );
      ("wsim", [ Alcotest.test_case "virtual-time trace" `Quick test_wsim_trace ]);
    ]
