(** Nowa — a wait-free continuation-stealing concurrency platform.

    This is the public face of the library: the default runtime is the
    paper's Nowa configuration (continuation stealing + wait-free strand
    coordination + Chase-Lev deques).  The baselines it was evaluated
    against are available under {!Presets} and share the same
    {!module-type:RUNTIME} interface.

    {[
      let rec fib n =
        if n < 2 then n
        else
          Nowa.scope (fun sc ->
              let a = Nowa.spawn sc (fun () -> fib (n - 1)) in
              let b = fib (n - 2) in
              Nowa.sync sc;
              Nowa.get a + b)

      let () = Printf.printf "%d\n" (Nowa.run (fun () -> fib 30))
    ]} *)

module Config = Nowa_runtime.Config
module Metrics = Nowa_runtime.Metrics

(** {1 Runtime health}

    The stall/convoy/starvation/SLO watchdog, which reads the workers'
    own {!Metrics} counters as their progress, and the dump-on-anomaly
    flight recorder.  Enable with
    {!Config.t.watchdog_interval_ms} > 0; query {!Health.status},
    {!Health.healthz} and {!Health.statusz}; force a postmortem bundle
    with {!Health.dump_now}. *)

module Health = Nowa_runtime.Health

(** {1 Live observability}

    The metrics registry ({!Obs.Registry}) carries the scheduler, stack
    and coordination counters while a run is executing: scrape it over
    TCP ({!Obs.Server}) or dump it as Prometheus text ({!Obs.Expose}).
    The engines publish into it automatically ({!Metrics.publish}). *)

module Obs = Nowa_obs

(** {1 Event tracing}

    Set {!Config.t.trace_capacity} > 0 on a run, then fetch the trace
    with [last_trace ()]; export with {!Perfetto} (opens directly in
    chrome://tracing / ui.perfetto.dev) or summarise with
    {!Trace_analysis}. *)

module Trace = Nowa_trace.Trace
module Trace_event = Nowa_trace.Event
module Trace_analysis = Nowa_trace.Trace_analysis
module Perfetto = Nowa_trace.Perfetto

module type RUNTIME = Nowa_runtime.Runtime_intf.S

module Presets = Nowa_runtime.Presets

(** {1 The default (wait-free) runtime} *)

include RUNTIME

(** {1 Structured helpers}

    Divide-and-conquer skeletons expressed on the spawn/sync primitives,
    usable with any runtime preset via {!Ops}. *)

module Ops (R : RUNTIME) : sig
  val both : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
  (** Run two computations in potential parallelism and return both. *)

  val parallel_for : ?grain:int -> int -> int -> (int -> unit) -> unit
  (** [parallel_for lo hi f] applies [f] to each index of [\[lo, hi)] by
      recursive halving; ranges of at most [grain] (default 1) indices
      run serially. *)

  val parallel_reduce :
    ?grain:int -> int -> int -> map:(int -> 'a) -> combine:('a -> 'a -> 'a) ->
    init:'a -> 'a
  (** Recursive-halving reduction of [map i] over [\[lo, hi)]. *)

  val map_array : ?grain:int -> ('a -> 'b) -> 'a array -> 'b array
end

(** The helpers, pre-instantiated for the default runtime. *)

val both : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
val parallel_for : ?grain:int -> int -> int -> (int -> unit) -> unit

val parallel_reduce :
  ?grain:int -> int -> int -> map:(int -> 'a) -> combine:('a -> 'a -> 'a) ->
  init:'a -> 'a

val map_array : ?grain:int -> ('a -> 'b) -> 'a array -> 'b array
