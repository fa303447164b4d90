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

(* Binary search for the first bound >= v; top-level, so a histogram
   observation allocates no closure over [v]. *)
let rec search (v : int) lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if bounds.(mid) >= v then search v lo mid else search v (mid + 1) hi
  end

let index v = if v <= 1 then 0 else search v 0 (count - 1)
