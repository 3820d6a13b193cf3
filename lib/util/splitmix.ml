type t = { mutable state : int64; gamma : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* MurmurHash3/SplitMix64 finalizer ("mix64"). *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let popcount x =
  let c = ref 0 and v = ref x in
  for _ = 1 to 64 do
    if Int64.logand !v 1L = 1L then incr c;
    v := Int64.shift_right_logical !v 1
  done;
  !c

(* Variant-13 finalizer, forced odd.  Steele et al. additionally reject
   gammas whose consecutive bits flip too rarely (weak mixing). *)
let mix_gamma z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  let z = Int64.logor (Int64.logxor z (Int64.shift_right_logical z 33)) 1L in
  if popcount (Int64.logxor z (Int64.shift_right_logical z 1)) < 24 then
    Int64.logxor z 0xAAAAAAAAAAAAAAAAL
  else z

let make ~seed = { state = Int64.of_int seed; gamma = golden_gamma }

let next t =
  t.state <- Int64.add t.state t.gamma;
  mix64 t.state

let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

let float t =
  let r = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int r *. (1.0 /. 9007199254740992.0)

let split t =
  let state = next t in
  let gamma = mix_gamma (next t) in
  { state; gamma }

let scramble k = Int64.to_int (mix64 (Int64.of_int k)) land max_int
