(** Monotonic clock helpers used by the schedulers, the benchmark
    harness, and the simulated madvise() cost model. *)

external now_ns : unit -> (int[@untagged])
  = "nowa_util_now_ns_byte" "nowa_util_now_ns"
[@@noalloc]
(** [CLOCK_MONOTONIC] in nanoseconds: never decreases, on any domain,
    and allocates nothing.  Its origin is unspecified (on Linux, boot),
    so only differences between readings mean anything. *)

val time_it : (unit -> 'a) -> float * 'a
(** [time_it f] runs [f ()] and returns (elapsed seconds, result). *)

val spin_ns : int -> unit
(** [spin_ns n] busy-waits for approximately [n] nanoseconds.  Used to model
    fixed hardware/kernel costs (e.g. an madvise() syscall) inside the
    simulated substrates. *)
