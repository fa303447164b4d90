let distance ~lo ~hi f g =
  let grid = 4096 in
  if hi <= lo then invalid_arg "Ks.distance: empty range";
  let width = (hi -. lo) /. float_of_int grid in
  let best = ref 0. in
  for i = 0 to grid do
    let x = lo +. (float_of_int i *. width) in
    let d = Float.abs (f x -. g x) in
    if d > !best then best := d
  done;
  !best

(* Kolmogorov's limiting tail Q(lambda) = 2 sum_j (-1)^(j-1) exp(-2 j^2
   lambda^2): the asymptotic probability of a KS statistic this large under
   the null, clamped to [0, 1]. *)
let kolmogorov_q lambda =
  if lambda <= 0. then 1.
  else begin
    (* Q(lambda) = 2 sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2); terms
       decay doubly exponentially, so a short alternating sum suffices. *)
    let a2 = -2. *. lambda *. lambda in
    let acc = ref 0. and fac = ref 2. and prev = ref infinity in
    let j = ref 1 in
    let continue = ref true in
    while !continue && !j <= 100 do
      let term = !fac *. Float.exp (a2 *. float_of_int (!j * !j)) in
      acc := !acc +. term;
      let mag = Float.abs term in
      if mag <= 1e-3 *. !prev || mag <= 1e-12 *. Float.abs !acc then
        continue := false
      else begin
        fac := -. !fac;
        prev := mag;
        incr j
      end
    done;
    Float.max 0. (Float.min 1. !acc)
  end

let two_sample a b =
  if Array.length a = 0 || Array.length b = 0 then
    invalid_arg "Ks.two_sample: empty sample";
  let sa = Array.copy a and sb = Array.copy b in
  Array.sort Float.compare sa;
  Array.sort Float.compare sb;
  let na = Array.length sa and nb = Array.length sb in
  let fa = float_of_int na and fb = float_of_int nb in
  let rec walk i j best =
    if i >= na || j >= nb then begin
      let final =
        Float.abs ((float_of_int i /. fa) -. (float_of_int j /. fb))
      in
      Float.max best final
    end
    else begin
      (* Advance past ties on both sides so equal observations cancel. *)
      let i, j =
        if sa.(i) < sb.(j) then (i + 1, j)
        else if sa.(i) > sb.(j) then (i, j + 1)
        else (i + 1, j + 1)
      in
      let d = Float.abs ((float_of_int i /. fa) -. (float_of_int j /. fb)) in
      walk i j (Float.max best d)
    end
  in
  walk 0 0 0.

let p_value a b =
  let d = two_sample a b in
  let na = float_of_int (Array.length a) and nb = float_of_int (Array.length b) in
  (* Asymptotic two-sample p with the standard small-sample correction
     lambda = (sqrt ne + 0.12 + 0.11 / sqrt ne) * D, ne = na nb / (na + nb). *)
  let ne = Float.sqrt (na *. nb /. (na +. nb)) in
  kolmogorov_q ((ne +. 0.12 +. (0.11 /. ne)) *. d)
