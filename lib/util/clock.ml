(* [now_ns] is CLOCK_MONOTONIC read by a C stub: the kernel guarantees it
   never steps backwards, on any CPU, so no per-domain clamp is needed,
   and the [@untagged] result with [@@noalloc] makes a read cost one vDSO
   call and no allocation. *)

external now_ns : unit -> (int[@untagged])
  = "nowa_util_now_ns_byte" "nowa_util_now_ns"
[@@noalloc]

let time_it f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  (float_of_int (t1 - t0) /. 1e9, r)

let spin_ns n =
  if n > 0 then begin
    let deadline = now_ns () + n in
    while now_ns () < deadline do
      Domain.cpu_relax ()
    done
  end
