(* 1-2-5 per decade, 1 ns .. 10^12 ns, then a catch-all. The ladder is a
   compile-time constant so histograms from different simulations (and
   different worker domains) always merge bucket-for-bucket. *)

let bounds =
  let decades = 13 (* 10^0 .. 10^12 *) in
  let b = Array.make ((3 * decades) + 1) 0 in
  let v = ref 1 in
  for d = 0 to decades - 1 do
    b.((3 * d) + 0) <- !v;
    b.((3 * d) + 1) <- 2 * !v;
    b.((3 * d) + 2) <- 5 * !v;
    v := 10 * !v
  done;
  b.(3 * decades) <- max_int;
  b

let count = Array.length bounds

let bound i =
  if i < 0 || i >= count then invalid_arg "Buckets.bound: index out of range";
  bounds.(i)

(* The largest finite bound: 5 * 10^12 < 2^53, so every value at or below
   it converts to a float exactly. *)
let top = bounds.(count - 2)

(* [log2 v] is the exponent of [v]'s leading bit, for [1 <= v <= top]:
   the exponent field of its exact float. *)
let[@inline] log2 v =
  Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float (float_of_int v)) 52)
  - 1023

(* [first.(p)] is the first bucket whose bound is at or above 2^p. *)
let first =
  Array.init (log2 top + 1) (fun p ->
      let rec go i = if bounds.(i) >= 1 lsl p then i else go (i + 1) in
      go 0)

(* Every value in [2^p, 2^(p+1)) lands in [first.(p)] or the next bucket:
   consecutive 1-2-5 bounds are at least 2x apart, so the bound after
   [first.(p)] is at least 2^(p+1). One table read and one compare, no
   search and no allocation. *)
let[@inline] index v =
  if v <= 1 then 0
  else if v > top then count - 1
  else begin
    let i = first.(log2 v) in
    if v <= bounds.(i) then i else i + 1
  end
