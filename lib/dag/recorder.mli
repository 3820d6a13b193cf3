(** Trace-driven DAG extraction.

    [Recorder] implements the platform's runtime interface but executes
    everything serially, building the computation's fork/join DAG as it
    goes and charging each strand vertex with its measured serial
    execution time.  Because the kernels are functors over that
    interface, any benchmark can be recorded unmodified; the resulting
    DAG feeds the discrete-event scheduler simulator ({!Wsim}), which is
    how this reproduction scales the paper's experiments to 256 workers
    on a small host.

    A fixed per-event timer overhead of 120 ns is subtracted from the
    strand costs, which are floored at 1 ns. *)

include Nowa_runtime.Runtime_intf.S

val record : (unit -> 'a) -> Dag.t * 'a
(** Run the computation under the recorder and return its DAG. *)

val last_dag : unit -> Dag.t option
(** The DAG of the most recent {!run} (for use through the generic
    runtime interface, e.g. with {!Nowa_kernels.Registry}). *)
