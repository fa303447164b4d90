(* The 64-bit state lives unboxed in 8 bytes: a mutable [int64] record
   field would box a fresh state on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] get t = Bytes.get_int64_le t 0

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create = of_state

let[@inline] next_int64 t =
  let s = Int64.add (get t) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let split t = of_state (next_int64 t)

(* Key derivation: fold each key into the state through one SplitMix64
   round. Unlike [split] this consumes no draws from any shared stream, so
   derived streams depend only on the (seed, keys) pair — never on the
   order in which other components were constructed. *)
let mix seed key = mix64 (Int64.add (Int64.logxor seed key) golden_gamma)
let derive ~seed keys = of_state (List.fold_left mix seed keys)

(* Take the top 53 bits for a uniform double in [0, 1). *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. 0x1p-53

(* Rejection sampling to avoid modulo bias. Top-level and passed the
   bound as an int, so a draw builds no closure and boxes no [int64]. *)
let rec draw t n =
  let n64 = Int64.of_int n in
  let bits = Int64.shift_right_logical (next_int64 t) 1 in
  let v = Int64.rem bits n64 in
  if Int64.sub bits v > Int64.sub Int64.max_int (Int64.sub n64 1L) then draw t n
  else Int64.to_int v

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  draw t n

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Prng.exponential: rate must be positive";
  let u = 1. -. float t in
  -.Float.log u /. rate
