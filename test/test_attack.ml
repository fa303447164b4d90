(* Tests for the attack library: the chi-square distinguisher, the noise
   defence's closed forms, and (smoke-level) the full attack scenario. *)

module Time = Sw_sim.Time
module Dist = Sw_stats.Dist
module D = Sw_attack.Distinguisher
module Nd = Sw_attack.Noise_defense

let test_analytic_monotone_in_confidence () =
  let null = Dist.exponential ~rate:1. in
  let alt = Dist.exponential ~rate:0.7 in
  let n1 = D.analytic ~null ~alt ~confidence:0.7 in
  let n2 = D.analytic ~null ~alt ~confidence:0.99 in
  if not (n2 > n1) then Alcotest.fail "more confidence, more observations"

let test_analytic_harder_for_similar () =
  let null = Dist.exponential ~rate:1. in
  let strong = D.analytic ~null ~alt:(Dist.exponential ~rate:0.5) ~confidence:0.9 in
  let weak =
    D.analytic ~null ~alt:(Dist.exponential ~rate:(10. /. 11.)) ~confidence:0.9
  in
  if not (weak > 10. *. strong) then
    Alcotest.failf "similar victim must need far more observations (%f vs %f)" weak
      strong

let test_median_raises_observations () =
  (* The core StopWatch claim, analytically: distinguishing the medians takes
     more observations than distinguishing the raw distributions. *)
  let base = Dist.exponential ~rate:1. in
  let victim = Dist.exponential ~rate:0.5 in
  let med3 = Sw_stats.Order_stats.median_dist [| base; base; base |] in
  let med2v = Sw_stats.Order_stats.median_dist [| victim; base; base |] in
  let raw = D.analytic ~null:base ~alt:victim ~confidence:0.9 in
  let med = D.analytic ~null:med3 ~alt:med2v ~confidence:0.9 in
  if not (med > 3. *. raw) then
    Alcotest.failf "median must dampen distinguishability (%f vs %f)" med raw

let test_empirical_roundtrip () =
  let rng = Sw_sim.Prng.create 5L in
  let sample rate n = Array.init n (fun _ -> Sw_sim.Prng.exponential rng ~rate) in
  let null = sample 1.0 5000 in
  let alt = sample 0.5 5000 in
  let chi = Sw_leak.Detector.chi_square in
  let needed ~alt =
    chi.Sw_leak.Detector.observations_needed ~null ~alt ~confidence:0.9
  in
  let n = needed ~alt in
  if n > 100. then Alcotest.failf "clearly distinct samples: %f too large" n;
  let null2 = sample 1.0 5000 in
  let same = needed ~alt:null2 in
  if not (same > 5. *. n) then Alcotest.fail "same distribution must look similar"

let test_sweep_shapes () =
  let grid = Sw_leak.Detector.confidence_grid in
  Alcotest.(check int) "grid size" 7 (List.length grid);
  let null = Dist.exponential ~rate:1. in
  let alt = Dist.exponential ~rate:0.6 in
  let values =
    List.map (fun confidence -> D.analytic ~null ~alt ~confidence) grid
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "nondecreasing in confidence" true (increasing values)

(* --- Noise defence ------------------------------------------------------------ *)

(* [compare]'s StopWatch delays are the median's mean plus delta_n, the
   smallest d with P(|X1 - X'1| <= d) >= 0.9999. Read delta_n back from a
   row and check it against the closed form of that probability and a
   Monte-Carlo estimate. *)
let test_abs_diff_cdf_properties () =
  let lambda = 1. and lambda' = 0.5 in
  let e = Dist.exponential ~rate:lambda and e' = Dist.exponential ~rate:lambda' in
  let median dists = Dist.mean (Sw_stats.Order_stats.median_dist dists) in
  let r = List.hd (Nd.compare ~lambda ~lambda' ()) in
  let d = r.Nd.delay_stopwatch -. median [| e; e; e |] in
  Alcotest.(check (float 1e-9)) "victim delay adds the same delta_n" d
    (r.Nd.delay_stopwatch_victim -. median [| e'; e; e |]);
  (* P(X - X' > d) = l'/(l+l') e^(-l d), and symmetrically. *)
  let abs_diff_cdf d =
    1.
    -. (lambda' /. (lambda +. lambda') *. Float.exp (-.lambda *. d))
    -. (lambda /. (lambda +. lambda') *. Float.exp (-.lambda' *. d))
  in
  Alcotest.(check (float 1e-9)) "coverage at delta_n" 0.9999 (abs_diff_cdf d);
  if abs_diff_cdf (d -. 1e-6) >= 0.9999 then
    Alcotest.fail "a smaller delta_n already covers 0.9999";
  let rng = Sw_sim.Prng.create 11L in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    let x = Sw_sim.Prng.exponential rng ~rate:lambda in
    let x' = Sw_sim.Prng.exponential rng ~rate:lambda' in
    if Float.abs (x -. x') <= d then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  if Float.abs (p -. 0.9999) > 0.0002 then
    Alcotest.failf "closed form disagrees with simulation: %f" p

(* The comparison's row at confidence 0.90. *)
let row_at_90 ~lambda ~lambda' =
  match
    List.find_opt
      (fun r -> r.Nd.confidence = 0.90)
      (Nd.compare ~lambda ~lambda' ())
  with
  | Some r -> r
  | None -> Alcotest.fail "no row at confidence 0.90"

let test_exp_plus_uniform_mean () =
  let r = row_at_90 ~lambda:1. ~lambda':0.5 in
  (* E[X1 + XN] = 1/lambda + b/2. *)
  Alcotest.(check (float 1e-6)) "noise delay formula"
    (1. +. (r.Nd.b /. 2.))
    r.Nd.delay_noise;
  if r.Nd.b <= 0. then Alcotest.fail "noise bound must be positive";
  if not (r.Nd.delay_stopwatch_victim >= r.Nd.delay_stopwatch) then
    Alcotest.fail "victim median delay should not be smaller"

let test_noise_bound_grows_with_distinctness () =
  let b_strong = (row_at_90 ~lambda:1. ~lambda':0.5).Nd.b in
  let b_weak = (row_at_90 ~lambda:1. ~lambda':(10. /. 11.)).Nd.b in
  if not (b_strong > b_weak) then
    Alcotest.failf "more distinct victim needs more noise (%f vs %f)" b_strong b_weak

(* --- Scenario (smoke) ------------------------------------------------------------ *)

let test_scenario_smoke () =
  let spec =
    {
      Sw_attack.Scenario.default with
      Sw_attack.Scenario.duration = Time.s 5;
      ping_rate_per_s = 50.;
      victim = true;
    }
  in
  let r = Sw_attack.Scenario.run spec in
  if r.Sw_attack.Scenario.deliveries < 100 then
    Alcotest.failf "too few deliveries: %d" r.Sw_attack.Scenario.deliveries;
  Alcotest.(check int) "no divergences" 0 r.Sw_attack.Scenario.divergences;
  let obs = r.Sw_attack.Scenario.attacker_inter_delivery_ms in
  Array.iter (fun x -> if x < 0. then Alcotest.fail "negative inter-delivery") obs

let test_scenario_baseline_smoke () =
  let spec =
    {
      Sw_attack.Scenario.default with
      Sw_attack.Scenario.duration = Time.s 5;
      baseline = true;
      victim = true;
      colluder = true;
    }
  in
  let r = Sw_attack.Scenario.run spec in
  if r.Sw_attack.Scenario.deliveries < 100 then Alcotest.fail "too few deliveries"

let test_scenario_five_replicas () =
  let spec =
    Sw_attack.Scenario.with_replicas
      { Sw_attack.Scenario.default with Sw_attack.Scenario.duration = Time.s 5 }
      5
  in
  let r = Sw_attack.Scenario.run spec in
  if r.Sw_attack.Scenario.deliveries < 100 then Alcotest.fail "too few deliveries"

let () =
  Alcotest.run "sw_attack"
    [
      ( "distinguisher",
        [
          Alcotest.test_case "monotone in confidence" `Quick
            test_analytic_monotone_in_confidence;
          Alcotest.test_case "similarity hardness" `Quick
            test_analytic_harder_for_similar;
          Alcotest.test_case "median dampens" `Quick test_median_raises_observations;
          Alcotest.test_case "empirical" `Quick test_empirical_roundtrip;
          Alcotest.test_case "sweep" `Quick test_sweep_shapes;
        ] );
      ( "noise-defence",
        [
          Alcotest.test_case "delta_n closed form" `Quick test_abs_diff_cdf_properties;
          Alcotest.test_case "delay formulas" `Quick test_exp_plus_uniform_mean;
          Alcotest.test_case "noise grows with distinctness" `Quick
            test_noise_bound_grows_with_distinctness;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "stopwatch smoke" `Quick test_scenario_smoke;
          Alcotest.test_case "baseline + colluder smoke" `Quick
            test_scenario_baseline_smoke;
          Alcotest.test_case "five replicas" `Quick test_scenario_five_replicas;
        ] );
    ]
