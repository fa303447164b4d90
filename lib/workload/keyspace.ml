type t = { keys : int; cdf : float array }

let create ~keys ~theta =
  if keys <= 0 then invalid_arg "Keyspace.create: keys <= 0";
  if theta < 0. then invalid_arg "Keyspace.create: negative theta";
  let cdf = Array.make keys 0. in
  let acc = ref 0. in
  for k = 0 to keys - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (k + 1)) theta);
    cdf.(k) <- !acc
  done;
  let total = !acc in
  for k = 0 to keys - 1 do
    cdf.(k) <- cdf.(k) /. total
  done;
  { keys; cdf }

let sample t rng =
  let u = Sw_sim.Prng.float rng in
  (* Smallest k with cdf.(k) > u. *)
  let lo = ref 0 and hi = ref (t.keys - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo
