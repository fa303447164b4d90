let cdf ~df x =
  if df <= 0 then invalid_arg "Chi_square.cdf: df must be positive";
  if x <= 0. then 0. else Special.gamma_p (float_of_int df /. 2.) (x /. 2.)

let critical_value ~df ~confidence =
  if confidence <= 0. || confidence >= 1. then
    invalid_arg "Chi_square.critical_value: confidence must be in (0, 1)";
  let rec widen hi = if cdf ~df hi < confidence then widen (hi *. 2.) else hi in
  let hi = widen 1. in
  let rec bisect lo hi iter =
    if iter = 0 then (lo +. hi) /. 2.
    else begin
      let mid = (lo +. hi) /. 2. in
      if cdf ~df mid < confidence then bisect mid hi (iter - 1)
      else bisect lo mid (iter - 1)
    end
  in
  bisect 0. hi 100

let statistic ~expected ~observed =
  if Array.length expected <> Array.length observed then
    invalid_arg "Chi_square.statistic: length mismatch";
  let acc = ref 0. in
  Array.iteri
    (fun i e ->
      if e > 0. then begin
        let d = observed.(i) -. e in
        acc := !acc +. (d *. d /. e)
      end)
    expected;
  !acc

let divergence ~null_probs ~alt_probs =
  if Array.length null_probs <> Array.length alt_probs then
    invalid_arg "Chi_square.divergence: length mismatch";
  let acc = ref 0. in
  Array.iteri
    (fun i p ->
      if p > 0. then begin
        let d = alt_probs.(i) -. p in
        acc := !acc +. (d *. d /. p)
      end)
    null_probs;
  !acc

let observations_needed ~null_probs ~alt_probs ~confidence =
  let df = Array.length null_probs - 1 in
  if df < 1 then invalid_arg "Chi_square.observations_needed: need >= 2 bins";
  let delta = divergence ~null_probs ~alt_probs in
  if delta <= 0. then infinity
  else begin
    let crit = critical_value ~df ~confidence in
    (* Under the alternative, E[statistic after n obs] ~ n * delta + df. *)
    Float.max 1. ((crit -. float_of_int df) /. delta)
  end

let equiprobable_edges (d : Dist.t) ~bins =
  if bins < 2 then invalid_arg "Chi_square.equiprobable_edges: need >= 2 bins";
  Array.init (bins - 1) (fun i ->
      Dist.quantile d (float_of_int (i + 1) /. float_of_int bins))

let empirical_edges samples ~bins =
  if bins < 2 then invalid_arg "Chi_square.empirical_edges: need >= 2 bins";
  if Array.length samples = 0 then
    invalid_arg "Chi_square.empirical_edges: empty sample";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  Array.init (bins - 1) (fun i ->
      let pos =
        float_of_int (i + 1) /. float_of_int bins *. float_of_int (n - 1)
      in
      let j = int_of_float (Float.floor pos) in
      if j >= n - 1 then sorted.(n - 1)
      else begin
        let frac = pos -. float_of_int j in
        sorted.(j) +. (frac *. (sorted.(j + 1) -. sorted.(j)))
      end)

let bin_probs ~edges cdf =
  let b = Array.length edges + 1 in
  Array.init b (fun i ->
      let upper = if i = b - 1 then 1. else cdf edges.(i) in
      let lower = if i = 0 then 0. else cdf edges.(i - 1) in
      Float.max 0. (upper -. lower))

let bin_counts ~edges samples =
  let b = Array.length edges + 1 in
  let counts = Array.make b 0. in
  Array.iter
    (fun x ->
      (* Index of the first edge strictly greater than x. *)
      let rec search lo hi =
        if lo >= hi then lo
        else begin
          let mid = (lo + hi) / 2 in
          if edges.(mid) <= x then search (mid + 1) hi else search lo mid
        end
      in
      let i = search 0 (Array.length edges) in
      counts.(i) <- counts.(i) +. 1.)
    samples;
  counts
