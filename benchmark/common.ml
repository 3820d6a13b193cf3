(* Scaffolding shared by the workloads. *)

module Stats = Nowa_util.Stats

type scale = Full | Smoke

let ms_of_ns ns = float_of_int ns /. 1e6
let us_of_ns ns = float_of_int ns /. 1e3

(** Runtime configuration of every workload: the default Nowa preset at
    [workers] workers, with the run seed as the victim-selection seed. *)
let conf ~workers ~seed = { (Nowa.Config.with_workers workers) with seed }

(** Run [build] five times (once at smoke scale), report the median wall
    time as [setup_s] and return the last result.  A full major GC
    between repetitions (untimed) frees the earlier copies. *)
let setup r ~scale build =
  let reps = match scale with Full -> 5 | Smoke -> 1 in
  let times = Array.make reps 0. in
  let result = ref None in
  for i = 0 to reps - 1 do
    if i > 0 then begin
      result := None;
      Gc.full_major ()
    end;
    let t0 = Mclock.now_ns () in
    result := Some (build ());
    times.(i) <- float_of_int (Mclock.now_ns () - t0) /. 1e9
  done;
  Report.set ~n:reps r "setup_s" (Stats.median (Array.to_list times));
  Option.get !result

(** The control every gated ratio is taken against: [work 0] on this
    domain and [work 1] on a second one, started together, with no
    runtime; [work] is the workload's serial program.  Returns the
    harmonic mean of the two wall times (ns).  On a quiet host that is
    one copy's time, the serial elision's; when the host takes cycles
    from either core, or the copies contend for memory or for the GC's
    stop-the-world sections, it grows with the capacity left, as a
    2-worker run's time does, so the ratio holds.  Timed on one core
    only, the control would stay fast while the 2-worker run slowed. *)
let on_both_cores work =
  let ready = Atomic.make 0 in
  let timed i () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let t0 = Mclock.now_ns () in
    work i;
    float_of_int (Mclock.now_ns () - t0)
  in
  let d = Domain.spawn (timed 1) in
  let a = timed 0 () in
  let b = Domain.join d in
  2. /. ((1. /. a) +. (1. /. b))

(** Call [step k] for k = 0, 1, ... until [seconds] have passed and at
    least [min_steps] steps ran, or [max_steps] is reached.  Returns the
    step count.  Each step starts from a fully collected heap (untimed),
    so GC work left by one step, mostly on the benchmark's own arrays,
    does not land in the next. *)
let repeat ~seconds ~min_steps ~max_steps step =
  let deadline = Mclock.now_ns () + int_of_float (seconds *. 1e9) in
  let k = ref 0 in
  while !k < max_steps && (!k < min_steps || Mclock.now_ns () < deadline) do
    Gc.full_major ();
    step !k;
    incr k
  done;
  !k

(** [f i] for each [i] in [\[lo, hi)] where [keep i] holds. *)
let collect ~lo ~hi keep f =
  let out = ref [] in
  for i = hi - 1 downto lo do
    if keep i then out := f i :: !out
  done;
  Array.of_list !out

(** Report the [p]-th percentile of [a] as [name], with its sample count
    (0 when [a] is empty). *)
let set_pct r name a p =
  let n = Array.length a in
  Report.set ~n r name (if n = 0 then 0. else Stats.percentile p (Array.to_list a))

(** [100 (traced - untraced) / untraced] on the medians of two sample
    sets: the cost the benchmark's own spans add. *)
let trace_overhead r ~traced ~untraced =
  let t = Stats.median (Array.to_list traced) and u = Stats.median (Array.to_list untraced) in
  Report.set
    ~n:(min (Array.length traced) (Array.length untraced))
    r "bench.trace_overhead_pct"
    (if Float.is_nan t || Float.is_nan u || u = 0. then 0. else 100. *. (t -. u) /. u)

let artifacts_dir = Filename.concat "artifacts" "benchmark"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** Write the traced run's spans as CSV: [header] then one line per
    recorded operation. *)
let write_spans ~workload ~header ~count line =
  mkdir_p artifacts_dir;
  let path = Filename.concat artifacts_dir (workload ^ ".spans.csv") in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc header;
      output_char oc '\n';
      for i = 0 to count - 1 do
        match line i with
        | Some l ->
          output_string oc l;
          output_char oc '\n'
        | None -> ()
      done)
