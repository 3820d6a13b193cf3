type t = {
  min_spins : int;
  max_spins : int;
  mutable current : int;
}

let make ?(min_spins = 4) ?(max_spins = 1024) () =
  { min_spins; max_spins; current = min_spins }

let reset t = t.current <- t.min_spins

let once t =
  for _ = 1 to t.current do
    Domain.cpu_relax ()
  done;
  if t.current >= t.max_spins then
    (* Oversubscribed host: give the OS a chance to run the victim. *)
    Unix.sleepf 0.0
  else t.current <- t.current * 2

let spins t = t.current
