(* Tests for the statistics library: special functions against reference
   values, distribution machinery, the order-statistics formula behind the
   paper's median analysis, KS distance (Theorems 3/4), and the chi-square
   distinguisher. *)

module Special = Sw_stats.Special
module Dist = Sw_stats.Dist
module Os = Sw_stats.Order_stats
module Ks = Sw_stats.Ks
module Chi = Sw_stats.Chi_square

let close ?(eps = 1e-6) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

(* --- Special functions -------------------------------------------------- *)

let test_log_gamma () =
  close "lgamma(1)" 0. (Special.log_gamma 1.);
  close "lgamma(2)" 0. (Special.log_gamma 2.);
  close "lgamma(5) = ln 24" (Float.log 24.) (Special.log_gamma 5.);
  close ~eps:1e-9 "lgamma(0.5) = ln sqrt(pi)"
    (0.5 *. Float.log Float.pi)
    (Special.log_gamma 0.5)

let test_gamma_p () =
  (* P(1, x) = 1 - e^-x *)
  close "P(1,1)" (1. -. Float.exp (-1.)) (Special.gamma_p 1. 1.);
  close "P(1,3)" (1. -. Float.exp (-3.)) (Special.gamma_p 1. 3.);
  (* chi-square with 2 df: cdf(x) = 1 - e^(-x/2), known value at x=4 *)
  close "chi2 df=2 at 4" (1. -. Float.exp (-2.)) (Special.gamma_p 1. 2.);
  close "P(a,0)" 0. (Special.gamma_p 3. 0.)

let test_erf () =
  close ~eps:1e-6 "erf(0)" 0. (Special.erf 0.);
  close ~eps:2e-7 "erf(1)" 0.8427007929 (Special.erf 1.);
  close ~eps:2e-7 "erf(-1)" (-0.8427007929) (Special.erf (-1.))

let test_choose () =
  close "C(5,2)" 10. (Special.choose 5 2);
  close "C(10,0)" 1. (Special.choose 10 0);
  close "C(10,10)" 1. (Special.choose 10 10);
  close "C(3,5)" 0. (Special.choose 3 5)

(* --- Dist ---------------------------------------------------------------- *)

let test_exponential_cdf () =
  let d = Dist.exponential ~rate:2. in
  close "cdf at 0" 0. (d.Dist.cdf 0.);
  close "cdf" (1. -. Float.exp (-2.)) (d.Dist.cdf 1.)

let test_uniform_quantile () =
  let d = Dist.uniform ~lo:2. ~hi:6. in
  close ~eps:1e-6 "q(0.5)" 4. (Dist.quantile d 0.5);
  close ~eps:1e-6 "q(0.25)" 3. (Dist.quantile d 0.25)

let test_mean_exponential () =
  let d = Dist.exponential ~rate:0.5 in
  close ~eps:0.01 "mean" 2. (Dist.mean d)

let test_add_means () =
  let d = Dist.add (Dist.exponential ~rate:1.) (Dist.uniform ~lo:0. ~hi:2.) in
  close ~eps:0.02 "mean of sum" 2. (Dist.mean d)

let test_of_samples () =
  let d = Dist.of_samples [| 1.; 2.; 3.; 4. |] in
  close "ecdf mid" 0.5 (d.Dist.cdf 2.);
  close "ecdf end" 1.0 (d.Dist.cdf 4.)

let test_constant_and_shift () =
  let c = Dist.constant 3. in
  close "below" 0. (c.Dist.cdf 2.9);
  close "at" 1. (c.Dist.cdf 3.);
  let sh = Dist.shift (Dist.exponential ~rate:1.) 10. in
  close "shifted cdf" (1. -. Float.exp (-1.)) (sh.Dist.cdf 11.);
  close ~eps:0.02 "shifted mean" 11. (Dist.mean sh)

(* --- Order statistics ---------------------------------------------------- *)

let test_median3_iid_formula () =
  (* For iid F: F_{2:3} = 3F^2 - 2F^3. *)
  let f = (Dist.exponential ~rate:1.).Dist.cdf in
  List.iter
    (fun x ->
      let p = f x in
      close ~eps:1e-12 "median3 iid"
        ((3. *. p *. p) -. (2. *. p *. p *. p))
        (Os.median3 f f f x))
    [ 0.1; 0.5; 1.0; 2.0; 5.0 ]

let test_cdf_rank_extremes () =
  (* Min of m: 1 - prod(1 - F_i); max of m: prod F_i. *)
  let f1 = (Dist.exponential ~rate:1.).Dist.cdf in
  let f2 = (Dist.uniform ~lo:0. ~hi:2.).Dist.cdf in
  let f3 = (Dist.exponential ~rate:0.5).Dist.cdf in
  let cdfs = [| f1; f2; f3 |] in
  List.iter
    (fun x ->
      let expected_max = f1 x *. f2 x *. f3 x in
      let expected_min = 1. -. ((1. -. f1 x) *. (1. -. f2 x) *. (1. -. f3 x)) in
      close ~eps:1e-9 "max" expected_max (Os.cdf_rank ~cdfs ~r:3 x);
      close ~eps:1e-9 "min" expected_min (Os.cdf_rank ~cdfs ~r:1 x))
    [ 0.3; 0.9; 1.7 ]

let test_cdf_rank_median_matches_median3 () =
  let f1 = (Dist.exponential ~rate:1.).Dist.cdf in
  let f2 = (Dist.uniform ~lo:0. ~hi:2.).Dist.cdf in
  let f3 = (Dist.exponential ~rate:0.5).Dist.cdf in
  List.iter
    (fun x ->
      close ~eps:1e-9 "r=2 of 3"
        (Os.median3 f1 f2 f3 x)
        (Os.cdf_rank ~cdfs:[| f1; f2; f3 |] ~r:2 x))
    [ 0.2; 0.8; 1.5; 3.0 ]

let test_sample_median () =
  close "median of 5" 3. (Os.sample_median [| 5.; 1.; 3.; 2.; 9. |]);
  Alcotest.check_raises "even count" (Invalid_argument "x") (fun () ->
      try ignore (Os.sample_median [| 1.; 2. |]) with
      | Invalid_argument _ -> raise (Invalid_argument "x"))

let test_median_int_networks () =
  (* The branch networks against hand cases, duplicates included. *)
  Alcotest.(check int) "median3" 2 (Os.median3_int 3 1 2);
  Alcotest.(check int) "median3 dup" 5 (Os.median3_int 5 5 1);
  Alcotest.(check int) "median5" 3 (Os.median5_int 5 1 3 2 9);
  Alcotest.(check int) "median5 dup max" 4 (Os.median5_int 9 9 4 1 2);
  Alcotest.(check int) "median5 all equal" 7 (Os.median5_int 7 7 7 7 7);
  Alcotest.(check int) "length 1" 42 (Os.median_int [| 42 |]);
  Alcotest.check_raises "even count" (Invalid_argument "x") (fun () ->
      try ignore (Os.median_int [| 1; 2 |]) with
      | Invalid_argument _ -> raise (Invalid_argument "x"))

let prop_median_int_matches_sort =
  QCheck.Test.make ~name:"median_int equals sorted middle element" ~count:500
    QCheck.(pair (int_bound 4) (array_of_size (Gen.return 9) (int_bound 50)))
    (fun (half, raw) ->
      (* Odd lengths 1, 3, 5, 7, 9: the first three take the branch
         networks, the rest the sort fallback. *)
      let n = (2 * half) + 1 in
      let samples = Array.init n (fun i -> raw.(i)) in
      let sorted = Array.copy samples in
      Array.sort Int.compare sorted;
      Os.median_int samples = sorted.(n / 2))

let prop_rank_cdf_monotone_in_x =
  QCheck.Test.make ~name:"F_{r:m} is monotone and within [0,1]" ~count:100
    QCheck.(pair (int_range 1 5) (float_range 0.1 3.))
    (fun (r, rate) ->
      let cdfs =
        Array.init 5 (fun i ->
            (Dist.exponential ~rate:(rate +. float_of_int i)).Dist.cdf)
      in
      let f = Os.cdf_rank ~cdfs ~r in
      let xs = List.init 30 (fun i -> float_of_int i /. 5.) in
      let values = List.map f xs in
      List.for_all (fun v -> v >= 0. && v <= 1.) values
      &&
      let rec nondec = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && nondec rest
        | _ -> true
      in
      nondec values)

let prop_median_dist_sampler_agrees =
  QCheck.Test.make ~name:"median_dist sampler matches its CDF" ~count:10
    QCheck.(float_range 0.5 2.)
    (fun rate ->
      let e = Dist.exponential ~rate in
      let d = Os.median_dist [| e; e; e |] in
      let rng = Sw_sim.Prng.create 123L in
      let n = 20_000 in
      let x = 1.0 /. rate in
      let hits = ref 0 in
      for _ = 1 to n do
        if d.Dist.sample rng <= x then incr hits
      done;
      let empirical = float_of_int !hits /. float_of_int n in
      Float.abs (empirical -. d.Dist.cdf x) < 0.02)

(* --- Theorems 3 and 4 ---------------------------------------------------- *)

let test_theorem3_contraction () =
  let f1 = Dist.exponential ~rate:1. in
  let f1' = Dist.exponential ~rate:0.5 in
  let f2 = Dist.exponential ~rate:2. in
  let f3 = Dist.uniform ~lo:0. ~hi:3. in
  let d1 = Ks.distance ~lo:0. ~hi:15. f1.Dist.cdf f1'.Dist.cdf in
  let m = Os.median3 f1.Dist.cdf f2.Dist.cdf f3.Dist.cdf in
  let m' = Os.median3 f1'.Dist.cdf f2.Dist.cdf f3.Dist.cdf in
  let d23 = Ks.distance ~lo:0. ~hi:15. m m' in
  if d23 >= d1 then Alcotest.failf "no contraction: %f >= %f" d23 d1

let test_theorem4_half () =
  let f1 = Dist.exponential ~rate:1. in
  let f1' = Dist.exponential ~rate:0.5 in
  let f2 = Dist.exponential ~rate:1. in
  let d1 = Ks.distance ~lo:0. ~hi:15. f1.Dist.cdf f1'.Dist.cdf in
  let m = Os.median3 f1.Dist.cdf f2.Dist.cdf f2.Dist.cdf in
  let m' = Os.median3 f1'.Dist.cdf f2.Dist.cdf f2.Dist.cdf in
  let d23 = Ks.distance ~lo:0. ~hi:15. m m' in
  if d23 > (0.5 *. d1) +. 1e-9 then
    Alcotest.failf "iid contraction above 1/2: %f vs %f" d23 d1

let prop_theorem3 =
  QCheck.Test.make ~name:"Thm 3: median contracts KS distance" ~count:50
    QCheck.(
      quad (float_range 0.3 3.) (float_range 0.3 3.) (float_range 0.3 3.)
        (float_range 0.3 3.))
    (fun (l1, l1', l2, l3) ->
      QCheck.assume (Float.abs (l1 -. l1') > 0.05);
      let c r = (Dist.exponential ~rate:r).Dist.cdf in
      let d1 = Ks.distance ~lo:0. ~hi:30. (c l1) (c l1') in
      let m = Os.median3 (c l1) (c l2) (c l3) in
      let m' = Os.median3 (c l1') (c l2) (c l3) in
      let d23 = Ks.distance ~lo:0. ~hi:30. m m' in
      d23 < d1 +. 1e-9)

let prop_theorem4 =
  QCheck.Test.make ~name:"Thm 4: iid X2,X3 contract by >= 1/2" ~count:50
    QCheck.(triple (float_range 0.3 3.) (float_range 0.3 3.) (float_range 0.3 3.))
    (fun (l1, l1', l2) ->
      QCheck.assume (Float.abs (l1 -. l1') > 0.05);
      let c r = (Dist.exponential ~rate:r).Dist.cdf in
      let d1 = Ks.distance ~lo:0. ~hi:30. (c l1) (c l1') in
      let m = Os.median3 (c l1) (c l2) (c l2) in
      let m' = Os.median3 (c l1') (c l2) (c l2) in
      let d23 = Ks.distance ~lo:0. ~hi:30. m m' in
      d23 <= (0.5 *. d1) +. 1e-6)

(* --- Divergences ------------------------------------------------------------ *)

let test_total_variation () =
  close "identical" 0. (Sw_stats.Divergences.total_variation [| 0.5; 0.5 |] [| 0.5; 0.5 |]);
  close "disjoint" 1. (Sw_stats.Divergences.total_variation [| 1.; 0. |] [| 0.; 1. |]);
  close "half" 0.5 (Sw_stats.Divergences.total_variation [| 1.; 0. |] [| 0.5; 0.5 |])

let test_kl () =
  close "identical" 0. (Sw_stats.Divergences.kl [| 0.3; 0.7 |] [| 0.3; 0.7 |]);
  let d = Sw_stats.Divergences.kl [| 0.9; 0.1 |] [| 0.5; 0.5 |] in
  if d <= 0. then Alcotest.fail "positive for distinct distributions";
  Alcotest.(check (float 0.)) "infinite on missing support" infinity
    (Sw_stats.Divergences.kl [| 0.5; 0.5 |] [| 1.; 0. |])

let test_kl_median_dampens () =
  (* StopWatch's median shrinks the KL divergence the attacker can exploit. *)
  let base = Dist.exponential ~rate:1. in
  let victim = Dist.exponential ~rate:0.5 in
  let med3 = Os.median_dist [| base; base; base |] in
  let med2v = Os.median_dist [| victim; base; base |] in
  let raw =
    Sw_stats.Divergences.kl_observations_needed ~null:base ~alt:victim
      ~confidence:0.95 ()
  in
  let med =
    Sw_stats.Divergences.kl_observations_needed ~null:med3 ~alt:med2v
      ~confidence:0.95 ()
  in
  if not (med > 2. *. raw) then
    Alcotest.failf "median must raise the KL sample complexity (%f vs %f)" med raw

let test_goodness_of_fit () =
  let d = Dist.exponential ~rate:1. in
  let edges = Chi.equiprobable_edges d ~bins:8 in
  let null_probs = Chi.bin_probs ~edges d.Dist.cdf in
  let rng = Sw_sim.Prng.create 21L in
  let own = Array.init 2000 (fun _ -> Sw_sim.Prng.exponential rng ~rate:1.) in
  let other = Array.init 2000 (fun _ -> Sw_sim.Prng.exponential rng ~rate:0.5) in
  let p_own = Chi.goodness_of_fit ~edges ~null_probs ~samples:own in
  let p_other = Chi.goodness_of_fit ~edges ~null_probs ~samples:other in
  if p_own < 0.01 then Alcotest.failf "own sample rejected (p=%f)" p_own;
  if p_other > 1e-6 then Alcotest.failf "foreign sample accepted (p=%f)" p_other

(* --- KS ------------------------------------------------------------------ *)

let test_ks_identical () =
  let f = (Dist.exponential ~rate:1.).Dist.cdf in
  close "zero distance" 0. (Ks.distance ~lo:0. ~hi:10. f f)

let test_ks_two_sample () =
  let a = [| 1.; 2.; 3.; 4. |] and b = [| 1.; 2.; 3.; 4. |] in
  close "same sample" 0. (Ks.two_sample a b);
  let c = [| 11.; 12.; 13.; 14. |] in
  close "disjoint" 1. (Ks.two_sample a c)

(* --- Chi-square ----------------------------------------------------------- *)

let test_chi2_cdf_known () =
  (* df=2: cdf(x) = 1 - e^(-x/2). *)
  close ~eps:1e-9 "df2" (1. -. Float.exp (-1.)) (Chi.cdf ~df:2 2.);
  (* Known critical value: chi2(0.95, df=3) ~ 7.8147. *)
  close ~eps:1e-3 "crit df3" 7.8147 (Chi.critical_value ~df:3 ~confidence:0.95);
  close ~eps:1e-3 "crit df9 99%" 21.666 (Chi.critical_value ~df:9 ~confidence:0.99)

let test_chi2_statistic () =
  close "zero when equal" 0.
    (Chi.statistic ~expected:[| 10.; 20. |] ~observed:[| 10.; 20. |]);
  close "basic" 1.
    (Chi.statistic ~expected:[| 4.; 100. |] ~observed:[| 6.; 100. |])

let test_observations_needed_monotone () =
  let null = Dist.exponential ~rate:1. in
  let alt = Dist.exponential ~rate:0.5 in
  let edges = Chi.equiprobable_edges null ~bins:10 in
  let null_probs = Chi.bin_probs ~edges null.Dist.cdf in
  let alt_probs = Chi.bin_probs ~edges alt.Dist.cdf in
  let n70 = Chi.observations_needed ~null_probs ~alt_probs ~confidence:0.70 in
  let n99 = Chi.observations_needed ~null_probs ~alt_probs ~confidence:0.99 in
  if not (n99 > n70) then Alcotest.fail "higher confidence needs more observations";
  let same = Chi.observations_needed ~null_probs ~alt_probs:null_probs ~confidence:0.9 in
  if same <> infinity then Alcotest.fail "identical distributions must be infinite"

let test_bin_utilities () =
  let d = Dist.exponential ~rate:1. in
  let edges = Chi.equiprobable_edges d ~bins:4 in
  Alcotest.(check int) "edges count" 3 (Array.length edges);
  let probs = Chi.bin_probs ~edges d.Dist.cdf in
  Array.iter (fun p -> close ~eps:1e-3 "equiprobable" 0.25 p) probs;
  let counts = Chi.bin_counts ~edges [| 0.01; 100.; edges.(0) -. 1e-9 |] in
  close "first bin" 2. counts.(0);
  close "last bin" 1. counts.(3)

let test_integrate () =
  close ~eps:1e-6 "simpson x^2"
    (1. /. 3.)
    (Sw_stats.Integrate.simpson (fun x -> x *. x) ~a:0. ~b:1.);
  close ~eps:1e-4 "trapezoid sin"
    2.
    (Sw_stats.Integrate.trapezoid Float.sin ~a:0. ~b:Float.pi)

let () =
  Alcotest.run "sw_stats"
    [
      ( "special",
        [
          Alcotest.test_case "log_gamma" `Quick test_log_gamma;
          Alcotest.test_case "gamma_p" `Quick test_gamma_p;
          Alcotest.test_case "erf" `Quick test_erf;
          Alcotest.test_case "choose" `Quick test_choose;
        ] );
      ( "dist",
        [
          Alcotest.test_case "exponential cdf" `Quick test_exponential_cdf;
          Alcotest.test_case "uniform quantile" `Quick test_uniform_quantile;
          Alcotest.test_case "mean" `Quick test_mean_exponential;
          Alcotest.test_case "sum of independents" `Quick test_add_means;
          Alcotest.test_case "empirical" `Quick test_of_samples;
          Alcotest.test_case "constant & shift" `Quick test_constant_and_shift;
        ] );
      ( "order-stats",
        [
          Alcotest.test_case "median3 iid closed form" `Quick test_median3_iid_formula;
          Alcotest.test_case "rank extremes" `Quick test_cdf_rank_extremes;
          Alcotest.test_case "rank 2-of-3 = median3" `Quick
            test_cdf_rank_median_matches_median3;
          Alcotest.test_case "sample median" `Quick test_sample_median;
          Alcotest.test_case "int median networks" `Quick
            test_median_int_networks;
          QCheck_alcotest.to_alcotest prop_median_int_matches_sort;
          QCheck_alcotest.to_alcotest prop_rank_cdf_monotone_in_x;
          QCheck_alcotest.to_alcotest prop_median_dist_sampler_agrees;
        ] );
      ( "theorems",
        [
          Alcotest.test_case "theorem 3 contraction" `Quick test_theorem3_contraction;
          Alcotest.test_case "theorem 4 halving" `Quick test_theorem4_half;
          QCheck_alcotest.to_alcotest prop_theorem3;
          QCheck_alcotest.to_alcotest prop_theorem4;
        ] );
      ( "ks",
        [
          Alcotest.test_case "identical" `Quick test_ks_identical;
          Alcotest.test_case "two-sample" `Quick test_ks_two_sample;
        ] );
      ( "divergences",
        [
          Alcotest.test_case "total variation" `Quick test_total_variation;
          Alcotest.test_case "kl" `Quick test_kl;
          Alcotest.test_case "kl median dampening" `Quick test_kl_median_dampens;
          Alcotest.test_case "goodness of fit" `Quick test_goodness_of_fit;
        ] );
      ( "chi-square",
        [
          Alcotest.test_case "cdf and criticals" `Quick test_chi2_cdf_known;
          Alcotest.test_case "statistic" `Quick test_chi2_statistic;
          Alcotest.test_case "observations monotone" `Quick
            test_observations_needed_monotone;
          Alcotest.test_case "binning" `Quick test_bin_utilities;
          Alcotest.test_case "integration" `Quick test_integrate;
        ] );
    ]
