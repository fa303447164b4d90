type t = {
  cdf : float -> float;
  sample : Sw_sim.Prng.t -> float;
  lo : float;
  hi : float;
}

let exponential ~rate =
  if rate <= 0. then invalid_arg "Dist.exponential: rate must be positive";
  {
    cdf = (fun x -> if x <= 0. then 0. else 1. -. Float.exp (-.rate *. x));
    sample = (fun rng -> Sw_sim.Prng.exponential rng ~rate);
    lo = 0.;
    hi = Float.log 1e6 /. rate;
  }

let uniform ~lo ~hi =
  if hi <= lo then invalid_arg "Dist.uniform: empty support";
  {
    cdf =
      (fun x ->
        if x <= lo then 0. else if x >= hi then 1. else (x -. lo) /. (hi -. lo));
    sample = (fun rng -> Sw_sim.Prng.uniform rng ~lo ~hi);
    lo;
    hi;
  }

let constant c =
  {
    cdf = (fun x -> if x >= c then 1. else 0.);
    sample = (fun _ -> c);
    lo = c;
    hi = c;
  }

let shift d c =
  {
    cdf = (fun x -> d.cdf (x -. c));
    sample = (fun rng -> d.sample rng +. c);
    lo = d.lo +. c;
    hi = d.hi +. c;
  }

let add d1 d2 =
  let steps = 512 in
  (* F_{X+Y}(z) = sum over a partition of Y's support of
     P(Y in bin) * F_X(z - y_mid). *)
  let width = (d2.hi -. d2.lo) /. float_of_int steps in
  let weights = Array.make steps 0. in
  let mids = Array.make steps 0. in
  for j = 0 to steps - 1 do
    let y0 = d2.lo +. (float_of_int j *. width) in
    let y1 = y0 +. width in
    weights.(j) <- d2.cdf y1 -. d2.cdf y0;
    mids.(j) <- (y0 +. y1) /. 2.
  done;
  (* Account for an atom at d2.lo (e.g. a point mass). *)
  let atom = d2.cdf d2.lo in
  let cdf z =
    let acc = ref (atom *. d1.cdf (z -. d2.lo)) in
    for j = 0 to steps - 1 do
      if weights.(j) > 0. then acc := !acc +. (weights.(j) *. d1.cdf (z -. mids.(j)))
    done;
    !acc
  in
  {
    cdf;
    sample = (fun rng -> d1.sample rng +. d2.sample rng);
    lo = d1.lo +. d2.lo;
    hi = d1.hi +. d2.hi;
  }

let of_samples samples =
  if Array.length samples = 0 then invalid_arg "Dist.of_samples: empty";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let cdf x =
    let rec search lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if sorted.(mid) <= x then search (mid + 1) hi else search lo mid
      end
    in
    float_of_int (search 0 n) /. float_of_int n
  in
  {
    cdf;
    sample = (fun rng -> sorted.(Sw_sim.Prng.int rng n));
    lo = sorted.(0);
    hi = sorted.(n - 1);
  }

let mean d =
  (* E[X] = lo + integral over [lo, hi] of (1 - F), for support in
     [lo, hi]. Trapezoidal rule. *)
  if d.hi <= d.lo then d.lo
  else begin
    let steps = 4096 in
    let width = (d.hi -. d.lo) /. float_of_int steps in
    let acc = ref 0. in
    for i = 0 to steps - 1 do
      let x0 = d.lo +. (float_of_int i *. width) in
      let x1 = x0 +. width in
      acc := !acc +. (width *. (2. -. d.cdf x0 -. d.cdf x1) /. 2.)
    done;
    d.lo +. !acc
  end

let quantile d p =
  if p < 0. || p > 1. then invalid_arg "Dist.quantile: p out of range";
  let rec bisect lo hi iter =
    if iter = 0 then (lo +. hi) /. 2.
    else begin
      let mid = (lo +. hi) /. 2. in
      if d.cdf mid < p then bisect mid hi (iter - 1) else bisect lo mid (iter - 1)
    end
  in
  bisect d.lo d.hi 80
