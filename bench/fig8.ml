(* Fig. 8: expected delay of StopWatch vs adding uniformly random noise, at
   equal defensive strength. Paper: the noise bound b (hence E[X + XN]) grows
   steeply with the attacker's required confidence and with the victim's
   distinctiveness, while StopWatch's delay stays flat (dominated by
   delta_n, set so P(|X1 - X'1| <= delta_n) >= 0.9999). *)

open Sw_experiments
module Nd = Sw_attack.Noise_defense
module Report = Sw_runner.Report

let table ~lambda' ~label =
  Tables.subsection label;
  Tables.header ~width:12
    [ "confidence"; "E[X+XN]"; "E[X'+XN]"; "E[X23+Dn]"; "E[X'23+Dn]"; "b"; "obs" ];
  List.map
    (fun (r : Nd.row) ->
      Tables.row ~width:12
        [
          Tables.f2 r.Nd.confidence;
          Tables.f1 r.Nd.delay_noise;
          Tables.f1 r.Nd.delay_noise_victim;
          Tables.f1 r.Nd.delay_stopwatch;
          Tables.f1 r.Nd.delay_stopwatch_victim;
          Tables.f1 r.Nd.b;
          Tables.f0 r.Nd.observations;
        ];
      Report.Obj
        [
          ("lambda_prime", Report.Float lambda');
          ("confidence", Report.Float r.Nd.confidence);
          ("delay_noise", Report.Float r.Nd.delay_noise);
          ("delay_noise_victim", Report.Float r.Nd.delay_noise_victim);
          ("delay_stopwatch", Report.Float r.Nd.delay_stopwatch);
          ("delay_stopwatch_victim", Report.Float r.Nd.delay_stopwatch_victim);
          ("noise_bound", Report.Float r.Nd.b);
          ("observations", Report.Float r.Nd.observations);
        ])
    (Nd.compare ~lambda:1.0 ~lambda' ())

let run () =
  Tables.section
    "Fig. 8 — expected delay: StopWatch vs uniform noise (equal protection)";
  let a =
    table ~lambda':0.5 ~label:"(a) lambda' = 1/2  (delays in virtual time units)"
  in
  let b = table ~lambda':(10. /. 11.) ~label:"(b) lambda' = 10/11" in
  Bench_report.add "fig8" (Report.List (a @ b))
