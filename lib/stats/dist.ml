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
