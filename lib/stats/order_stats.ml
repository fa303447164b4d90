(* Sum over all subsets I of {0..m-1} with |I| = l of prod_{i in I} f_i(x).
   Computed via the elementary symmetric polynomial recurrence: e_l of
   (v_0..v_{m-1}) in O(m^2), which is exact and far cheaper than enumerating
   subsets. *)
let elementary_symmetric values l =
  let m = Array.length values in
  let e = Array.make (l + 1) 0. in
  e.(0) <- 1.;
  for i = 0 to m - 1 do
    for j = Stdlib.min l (i + 1) downto 1 do
      e.(j) <- e.(j) +. (values.(i) *. e.(j - 1))
    done
  done;
  e.(l)

(* F_(r:m)(x), 1 <= r <= m; see [median_dist] in the .mli. *)
let cdf_rank ~cdfs ~r x =
  let m = Array.length cdfs in
  let values = Array.map (fun f -> f x) cdfs in
  let acc = ref 0. in
  for l = r to m do
    let sign = if (l - r) mod 2 = 0 then 1. else -1. in
    let coeff = Special.choose (l - 1) (r - 1) in
    acc := !acc +. (sign *. coeff *. elementary_symmetric values l)
  done;
  (* Clamp tiny numeric excursions outside [0, 1]. *)
  Float.max 0. (Float.min 1. !acc)

let median3 f1 f2 f3 x =
  let a = f1 x and b = f2 x and c = f3 x in
  let v = (a *. b) +. (a *. c) +. (b *. c) -. (2. *. a *. b *. c) in
  (* Near 1 the sum rounds to 1 + ulp; a CDF stays within [0, 1]. *)
  Float.max 0. (Float.min 1. v)

let median ~cdfs x =
  let m = Array.length cdfs in
  if m mod 2 = 0 then invalid_arg "Order_stats.median: even count";
  if m = 3 then median3 cdfs.(0) cdfs.(1) cdfs.(2) x
  else cdf_rank ~cdfs ~r:((m + 1) / 2) x

let sample_median samples =
  let n = Array.length samples in
  if n mod 2 = 0 then invalid_arg "Order_stats.sample_median: even count";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  sorted.(n / 2)

(* Allocation-free sample medians for the small odd vote counts the VMM
   takes per replicated interrupt (3 replicas, occasionally 5 with spares).
   Branch networks instead of copy + sort: a handful of compares, no
   intermediate array, no comparator closure. The [int] annotations make
   every compare a machine compare rather than a polymorphic
   [caml_compare] call. *)

let median3_int (a : int) b c =
  if a <= b then if b <= c then b else if a <= c then c else a
  else if a <= c then a
  else if b <= c then c
  else b

let median5_int (a : int) b c d e =
  (* Median of five via a 6-compare network: f is the larger of the two
     pairwise minima, g the smaller of the two pairwise maxima; the median
     of {e, f, g} is the median of all five. *)
  let f =
    let x = if a <= b then a else b and y = if c <= d then c else d in
    if x >= y then x else y
  in
  let g =
    let x = if a >= b then a else b and y = if c >= d then c else d in
    if x <= y then x else y
  in
  median3_int e f g

let median_int (samples : int array) =
  let n = Array.length samples in
  if n mod 2 = 0 then invalid_arg "Order_stats.median_int: even count";
  match n with
  | 1 -> samples.(0)
  | 3 -> median3_int samples.(0) samples.(1) samples.(2)
  | 5 ->
      median5_int samples.(0) samples.(1) samples.(2) samples.(3)
        samples.(4)
  | _ ->
      let sorted = Array.copy samples in
      Array.sort Int.compare sorted;
      sorted.(n / 2)

let median_dist dists =
  let m = Array.length dists in
  if m mod 2 = 0 then invalid_arg "Order_stats.median_dist: even count";
  let cdfs = Array.map (fun (d : Dist.t) -> d.cdf) dists in
  let lo = Array.fold_left (fun acc (d : Dist.t) -> Float.min acc d.lo) infinity dists in
  let hi = Array.fold_left (fun acc (d : Dist.t) -> Float.max acc d.hi) neg_infinity dists in
  {
    Dist.cdf = median ~cdfs;
    sample = (fun rng -> sample_median (Array.map (fun (d : Dist.t) -> d.sample rng) dists));
    lo;
    hi;
  }
