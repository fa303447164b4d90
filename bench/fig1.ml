(* Fig. 1: analytic justification for the median. Baseline timings are
   Exp(lambda = 1); the victim induces Exp(lambda'). (a) compares the median
   distributions with and without one victim-influenced replica; (b)/(c) give
   the observations an attacker needs for a chi-square rejection. *)

open Sw_experiments

let lambda = 1.0

let dists ~lambda' =
  let base = Sw_stats.Dist.exponential ~rate:lambda in
  let victim = Sw_stats.Dist.exponential ~rate:lambda' in
  let median_baselines = Sw_stats.Order_stats.median_dist [| base; base; base |] in
  let median_victim = Sw_stats.Order_stats.median_dist [| victim; base; base |] in
  (base, victim, median_baselines, median_victim)

let subfig_a () =
  Tables.subsection "Fig. 1(a): CDFs (lambda = 1, lambda' = 1/2)";
  let base, victim, med3, med2v = dists ~lambda':0.5 in
  Tables.header ~width:10
    [ "x"; "baseline"; "victim"; "med-3base"; "med-2b+1v" ];
  List.iter
    (fun x ->
      Tables.row ~width:10
        [
          Tables.f1 x;
          Tables.f2 (base.Sw_stats.Dist.cdf x);
          Tables.f2 (victim.Sw_stats.Dist.cdf x);
          Tables.f2 (med3.Sw_stats.Dist.cdf x);
          Tables.f2 (med2v.Sw_stats.Dist.cdf x);
        ])
    [ 0.25; 0.5; 1.0; 1.5; 2.0; 3.0; 4.0; 5.0; 6.0 ]

let observations_table ~lambda' ~label =
  Tables.subsection label;
  let base, victim, med3, med2v = dists ~lambda' in
  Tables.header ~width:12 [ "confidence"; "with SW"; "without SW"; "ratio" ];
  List.iter
    (fun confidence ->
      let with_sw =
        Sw_attack.Distinguisher.analytic ~null:med3 ~alt:med2v ~confidence ()
      in
      let without_sw =
        Sw_attack.Distinguisher.analytic ~null:base ~alt:victim ~confidence ()
      in
      Tables.row ~width:12
        [
          Tables.f2 confidence;
          Tables.f1 with_sw;
          Tables.f1 without_sw;
          Tables.f1 (with_sw /. without_sw);
        ])
    Sw_leak.Detector.confidence_grid

let run () =
  Tables.section "Fig. 1 — justification for the median (analytic)";
  subfig_a ();
  observations_table ~lambda':0.5
    ~label:"Fig. 1(b): observations to detect victim; lambda' = 1/2";
  observations_table ~lambda':(10. /. 11.)
    ~label:"Fig. 1(c): observations to detect victim; lambda' = 10/11"
