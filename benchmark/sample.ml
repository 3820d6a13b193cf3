(* Order statistics over exact samples (no histogram bucketing), on top of
   [Nowa_util.Stats]'s nearest-rank percentile and median. *)

module Stats = Nowa_util.Stats

(** Median, over consecutive blocks of [size] samples, of each block's
    [p]-th percentile (the whole array when shorter than one block).  A
    host stall then moves the blocks it hits, not the result. *)
let windowed a ~size p =
  let blocks = Array.length a / size in
  if blocks = 0 then Stats.percentile p (Array.to_list a)
  else
    Stats.median
      (List.init blocks (fun b -> Stats.percentile p (Array.to_list (Array.sub a (b * size) size))))

(** Quartiles [(q1, q2, q3)] exactly as Python's
    [statistics.quantiles(values, n=4)] (the default exclusive method)
    gives them, so that spreads printed here match the ones an external
    checker computes.  A single sample is its own quartiles. *)
let quartiles a =
  let d = Array.copy a in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(** Interquartile distance as a share of the median (0 when the median
    is 0). *)
let spread a =
  let q1, q2, q3 = quartiles a in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2
