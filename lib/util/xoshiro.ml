(* The state words s0..s3 at byte offsets 0, 8, 16 and 24, read and
   written with [Bytes.get_int64_le]/[set_int64_le] inside the inlined
   [next]: no word is boxed, so [int] allocates nothing. *)
type t = Bytes.t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* SplitMix64 seeding, as recommended by Blackman & Vigna. *)
let splitmix64 state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make ~seed =
  let st = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le t (8 * i) (splitmix64 st)
  done;
  t

let[@inline] next t =
  let s0 = Bytes.get_int64_le t 0 and s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 and s3 = Bytes.get_int64_le t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 and s3 = Int64.logxor s3 s1 in
  Bytes.set_int64_le t 0 (Int64.logxor s0 s3);
  Bytes.set_int64_le t 8 (Int64.logxor s1 s2);
  Bytes.set_int64_le t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  Bytes.set_int64_le t 24 (rotl s3 45);
  result

let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

let float t =
  let r = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int r *. (1.0 /. 9007199254740992.0)

let split t =
  let seed = Int64.to_int (next t) in
  make ~seed
