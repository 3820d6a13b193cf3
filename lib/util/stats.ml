let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let stddev l =
  match l with
  | [] | [ _ ] -> 0.0
  | l ->
    let m = mean l in
    let n = float_of_int (List.length l) in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 l in
    sqrt (ss /. (n -. 1.0))

let geomean = function
  | [] -> nan
  | l ->
    let n = float_of_int (List.length l) in
    let s = List.fold_left (fun acc x -> acc +. log x) 0.0 l in
    exp (s /. n)

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let minimum = function [] -> nan | l -> List.fold_left min infinity l
let maximum = function [] -> nan | l -> List.fold_left max neg_infinity l

(* Nearest-rank percentile: for p in (0,100], the value at rank
   ceil(p/100 * n) of the sorted sample (1-based); p = 0 yields the
   minimum.  Empty input yields nan. *)
let percentile p = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    let p = Float.min 100.0 (Float.max 0.0 p) in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

type speedup = { geo : float; sd : float; runs : int }

let speedup_of_runs ~serial_mean times =
  let speedups = List.map (fun t -> serial_mean /. t) times in
  { geo = geomean speedups; sd = stddev speedups; runs = List.length times }

let ratio_geomean pairs = geomean (List.map (fun (a, b) -> a /. b) pairs)
