type t = {
  flag : bool Atomic.t;
  spins_hist : Nowa_obs.Histogram.t;
}

let create ?(spins = Sync_metrics.spinlock_spins) () =
  { flag = Nowa_util.Padding.atomic false; spins_hist = spins }

let acquire t =
  if not (Atomic.compare_and_set t.flag false true) then begin
    (* Contended: fall into the TTAS loop and count the relax rounds we
       burn, so the observability layer can histogram lock-acquisition
       waits.  The uncontended path above stays a single CAS with no
       observation. *)
    let rounds = ref 0 in
    let spins = ref 4 in
    while not (Atomic.compare_and_set t.flag false true) do
      (* Test-and-test-and-set: spin on the read-only path while contended. *)
      while Atomic.get t.flag do
        incr rounds;
        for _ = 1 to !spins do
          Domain.cpu_relax ()
        done;
        if !spins < 1024 then spins := !spins * 2
        else (* Let the holder run on oversubscribed hosts. *)
          Unix.sleepf 0.0
      done
    done;
    Nowa_obs.Histogram.observe t.spins_hist !rounds
  end

let release t = Atomic.set t.flag false
