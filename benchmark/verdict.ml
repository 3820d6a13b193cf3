(* Comparing two sets of runs of one metric (A the parent, B the change).

   - improved: B wins at least 9 in 10 pairs (ties count for neither)
     and the medians differ, in B's favour, by more than A's
     interquartile distance;
   - regressed: B's median is worse than A's by more than the bound
     (for a metric with no bound: the improved rule, reversed);
   - unresolved: neither, and the run-to-run spread of either side is
     wider than the bound — unless every run of B reads better than every
     run of A (a metric with no bound is always unresolved here);
   - within bound: otherwise. *)

type t = Improved | Regressed | Within_bound | Unresolved

let to_string = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Within_bound -> "within bound"
  | Unresolved -> "unresolved"

(** Share of the pairs (A.(i), B.(i)) in which B is strictly better. *)
let win_fraction ~higher a b =
  let n = min (Array.length a) (Array.length b) in
  if n = 0 then 0.
  else begin
    let wins = ref 0 in
    for i = 0 to n - 1 do
      if (higher && b.(i) > a.(i)) || ((not higher) && b.(i) < a.(i)) then incr wins
    done;
    float_of_int !wins /. float_of_int n
  end

let decide ~higher ~bound a b =
  let a1, am, a3 = Sample.quartiles a and _, bm, _ = Sample.quartiles b in
  (* Positive when B is better. *)
  let gain = if higher then bm -. am else am -. bm in
  let iqr = a3 -. a1 in
  if win_fraction ~higher a b >= 0.9 && gain > iqr then Improved
  else
    match bound with
    | None ->
      if win_fraction ~higher:(not higher) a b >= 0.9 && -.gain > iqr then Regressed
      else Unresolved
    | Some bound ->
      let all_better =
        Array.length a > 0
        && Array.length b > 0
        &&
        if higher then Array.fold_left Float.min infinity b > Array.fold_left Float.max neg_infinity a
        else Array.fold_left Float.max neg_infinity b < Array.fold_left Float.min infinity a
      in
      if -.gain > bound *. Float.abs am then Regressed
      else if (Sample.spread a > bound || Sample.spread b > bound) && not all_better then
        Unresolved
      else Within_bound
