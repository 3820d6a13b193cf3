external now_ns : unit -> (int[@untagged])
  = "nowa_benchmark_now_ns_byte" "nowa_benchmark_now_ns"
[@@noalloc]
(** CLOCK_MONOTONIC in nanoseconds; no allocation, safe from any domain. *)

(** Busy-wait until [t]; returns the first reading at or past it. *)
let rec spin_until t =
  let now = now_ns () in
  if now >= t then now
  else begin
    Domain.cpu_relax ();
    spin_until t
  end
