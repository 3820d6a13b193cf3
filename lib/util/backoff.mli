(** Truncated exponential backoff for contended retry loops.

    Thieves use this between failed steal attempts; the spinlock uses it in
    its acquisition loop.  Each [once] spins the current width in
    [Domain.cpu_relax] hints and doubles the width for the next step.  The
    width saturates at [max_spins] (the cap): once there, every further
    step additionally yields the timeslice ([Unix.sleepf 0]) so that on
    machines with fewer cores than workers a spinning thief cannot starve
    the strand it is waiting for.  The cap bounds the worst-case gap
    between two steal probes — backoff never sleeps for a real duration,
    so work that appears is picked up within one capped spin plus one
    scheduler quantum. *)

type t

val make : ?min_spins:int -> ?max_spins:int -> unit -> t
(** Defaults: [min_spins = 4], [max_spins = 1024]. *)

val reset : t -> unit
(** Back to [min_spins] width. *)

val once : t -> unit
(** Perform one backoff step and double the next step, up to the cap. *)

val spins : t -> int
(** Width (cpu_relax iterations) the {e next} [once] will spin: starts at
    [min_spins], doubles per step, saturates at [max_spins]. *)
