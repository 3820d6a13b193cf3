(** Statistics following the paper's evaluation methodology (Section V):
    serial time is the arithmetic mean of the serial-elision runs; per-run
    speedups are [T_s / T_n]; runtimes are compared through the geometric
    mean of those speedups, with the standard deviation shown as error
    bars; runtime-vs-runtime ratios are geometric means of speedup
    ratios. *)

val mean : float list -> float
val stddev : float list -> float
(** Sample standard deviation (Bessel-corrected); 0 for lists of length < 2. *)

val geomean : float list -> float
val median : float list -> float
val minimum : float list -> float
val maximum : float list -> float

val percentile : float -> float list -> float
(** [percentile p l] is the nearest-rank [p]-th percentile of [l] for
    [p] in [0, 100]: the element at rank [ceil (p/100 × n)] of the
    sorted sample (1-based), with [p = 0] yielding the minimum and an
    empty list yielding [nan].  Out-of-range [p] is clamped. *)

type speedup = {
  geo : float;      (** geometric mean of per-run speedups *)
  sd : float;       (** standard deviation of per-run speedups *)
  runs : int;
}

val speedup_of_runs : serial_mean:float -> float list -> speedup
(** [speedup_of_runs ~serial_mean times] computes the paper's speedup
    statistic for one (runtime, benchmark, thread-count) cell. *)

val ratio_geomean : (float * float) list -> float
(** [ratio_geomean pairs] is the geometric mean of [fst /. snd] — the
    paper's "average performance change between runtime systems". *)
