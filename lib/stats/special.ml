(* Lanczos approximation, g = 7, n = 9 coefficients. *)
let lanczos =
  [|
    0.99999999999980993;
    676.5203681218851;
    -1259.1392167224028;
    771.32342877765313;
    -176.61502916214059;
    12.507343278686905;
    -0.13857109526572012;
    9.9843695780195716e-6;
    1.5056327351493116e-7;
  |]

let rec log_gamma x =
  if x <= 0. then invalid_arg "Special.log_gamma: requires x > 0";
  if x < 0.5 then
    (* Reflection formula. *)
    Float.log (Float.pi /. Float.sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else begin
    let x = x -. 1. in
    let acc = ref lanczos.(0) in
    for i = 1 to 8 do
      acc := !acc +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. Float.log (2. *. Float.pi))
    +. ((x +. 0.5) *. Float.log t)
    -. t
    +. Float.log !acc
  end

(* Series expansion of P(a, x), valid for x < a + 1. *)
let gamma_p_series a x =
  let eps = 1e-14 in
  let rec loop n term sum =
    if Float.abs term < Float.abs sum *. eps || n > 1000 then sum
    else begin
      let term = term *. x /. (a +. float_of_int n) in
      loop (n + 1) term (sum +. term)
    end
  in
  let first = 1. /. a in
  let sum = loop 1 first first in
  sum *. Float.exp ((a *. Float.log x) -. x -. log_gamma a)

(* Continued fraction for Q(a, x), valid for x >= a + 1 (Lentz). *)
let gamma_q_cf a x =
  let eps = 1e-14 and tiny = 1e-300 in
  let b = ref (x +. 1. -. a) in
  let c = ref (1. /. tiny) in
  let d = ref (1. /. !b) in
  let h = ref !d in
  let i = ref 1 in
  let continue = ref true in
  while !continue && !i <= 1000 do
    let an = -.float_of_int !i *. (float_of_int !i -. a) in
    b := !b +. 2.;
    d := (an *. !d) +. !b;
    if Float.abs !d < tiny then d := tiny;
    c := !b +. (an /. !c);
    if Float.abs !c < tiny then c := tiny;
    d := 1. /. !d;
    let delta = !d *. !c in
    h := !h *. delta;
    if Float.abs (delta -. 1.) < eps then continue := false;
    incr i
  done;
  !h *. Float.exp ((a *. Float.log x) -. x -. log_gamma a)

let gamma_p a x =
  if a <= 0. then invalid_arg "Special.gamma_p: requires a > 0";
  if x < 0. then invalid_arg "Special.gamma_p: requires x >= 0";
  if x = 0. then 0.
  else if x < a +. 1. then gamma_p_series a x
  else 1. -. gamma_q_cf a x

(* Abramowitz & Stegun 7.1.26, max error 1.5e-7; adequate for tests. *)
let erf x =
  let sign = if x < 0. then -1. else 1. in
  let x = Float.abs x in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  let poly =
    t
    *. (0.254829592
       +. (t
          *. (-0.284496736
             +. (t *. (1.421413741 +. (t *. (-1.453152027 +. (t *. 1.061405429))))))))
  in
  sign *. (1. -. (poly *. Float.exp (-.x *. x)))

let log_beta a b = log_gamma a +. log_gamma b -. log_gamma (a +. b)

(* Continued fraction for the incomplete beta (modified Lentz). *)
let beta_cf a b x =
  let eps = 1e-14 and tiny = 1e-300 in
  let qab = a +. b and qap = a +. 1. and qam = a -. 1. in
  let c = ref 1. in
  let d = ref (1. -. (qab *. x /. qap)) in
  if Float.abs !d < tiny then d := tiny;
  d := 1. /. !d;
  let h = ref !d in
  let m = ref 1 in
  let continue = ref true in
  while !continue && !m <= 300 do
    let fm = float_of_int !m in
    let m2 = 2. *. fm in
    let aa = fm *. (b -. fm) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1. +. (aa *. !d);
    if Float.abs !d < tiny then d := tiny;
    c := 1. +. (aa /. !c);
    if Float.abs !c < tiny then c := tiny;
    d := 1. /. !d;
    h := !h *. !d *. !c;
    let aa = -.(a +. fm) *. (qab +. fm) *. x /. ((a +. m2) *. (qap +. m2)) in
    d := 1. +. (aa *. !d);
    if Float.abs !d < tiny then d := tiny;
    c := 1. +. (aa /. !c);
    if Float.abs !c < tiny then c := tiny;
    d := 1. /. !d;
    let delta = !d *. !c in
    h := !h *. delta;
    if Float.abs (delta -. 1.) < eps then continue := false;
    incr m
  done;
  !h

let betai a b x =
  if a <= 0. || b <= 0. then invalid_arg "Special.betai: requires a, b > 0";
  if x < 0. || x > 1. then invalid_arg "Special.betai: requires x in [0, 1]";
  if x = 0. then 0.
  else if x = 1. then 1.
  else begin
    let front =
      Float.exp
        ((a *. Float.log x) +. (b *. Float.log (1. -. x)) -. log_beta a b)
    in
    (* The continued fraction converges fast only below the distribution's
       mode; use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) past it. *)
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. beta_cf a b x /. a
    else 1. -. (front *. beta_cf b a (1. -. x) /. b)
  end

let norm_cdf x = 0.5 *. (1. +. erf (x /. Float.sqrt 2.))

let probit p =
  if p <= 0. || p >= 1. then invalid_arg "Special.probit: requires p in (0, 1)";
  (* Bisection against the erf-based CDF: slower than a rational
     approximation but trivially monotone and deterministic. *)
  let rec bisect lo hi iter =
    if iter = 0 then (lo +. hi) /. 2.
    else begin
      let mid = (lo +. hi) /. 2. in
      if norm_cdf mid < p then bisect mid hi (iter - 1)
      else bisect lo mid (iter - 1)
    end
  in
  bisect (-40.) 40. 200

let choose n k =
  if k < 0 || k > n then 0.
  else begin
    let k = Stdlib.min k (n - k) in
    let acc = ref 1. in
    for i = 0 to k - 1 do
      acc := !acc *. float_of_int (n - i) /. float_of_int (i + 1)
    done;
    Float.round !acc
  end
