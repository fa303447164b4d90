(* The headline demonstration: an attacker VM tries to detect whether a
   victim VM (continuously serving files) is coresident with it, by timing
   the deliveries of its own packet stream.

   Without StopWatch the victim's device-model and disk load perturbs the
   attacker's observed inter-delivery times enough to detect coresidency in
   tens of observations; with StopWatch the observable timings are the median
   across three replicas (only one of which shares a machine with the
   victim), and the channel almost disappears.

   Run with: dune exec examples/timing_attack.exe *)

module Scenario = Sw_attack.Scenario
module Detector = Sw_leak.Detector

let describe label (obs : float array) =
  let n = Array.length obs in
  let mean = Array.fold_left ( +. ) 0. obs /. float_of_int n in
  let sorted = Array.copy obs in
  Array.sort compare sorted;
  Printf.printf "  %-24s n=%4d  mean %6.2f ms   p50 %6.2f   p90 %6.2f\n" label n mean
    sorted.(n / 2)
    sorted.(n * 9 / 10)

let () =
  let base = { Scenario.default with Scenario.duration = Sw_sim.Time.s 30 } in
  print_endline "Attacker's virtual inter-delivery times:\n";
  print_endline "Unmodified Xen (attacker and victim share the machine):";
  let bl_no = Scenario.run { base with Scenario.baseline = true } in
  let bl_yes = Scenario.run { base with Scenario.baseline = true; victim = true } in
  describe "no victim" bl_no.Scenario.attacker_inter_delivery_ms;
  describe "victim coresident" bl_yes.Scenario.attacker_inter_delivery_ms;
  print_endline "\nStopWatch (three replicas, median delivery timing):";
  let sw_no = Scenario.run base in
  let sw_yes = Scenario.run { base with Scenario.victim = true } in
  describe "no victim" sw_no.Scenario.attacker_inter_delivery_ms;
  describe "victim coresident" sw_yes.Scenario.attacker_inter_delivery_ms;
  print_endline "\nObservations the attacker needs to detect the victim (chi-square):";
  Printf.printf "  %-12s %14s %14s\n" "confidence" "without SW" "with SW";
  let chi = Detector.chi_square in
  let needed ~confidence (null : Scenario.result) (alt : Scenario.result) =
    chi.Detector.observations_needed ~confidence
      ~null:null.Scenario.attacker_inter_delivery_ms
      ~alt:alt.Scenario.attacker_inter_delivery_ms
  in
  List.iter
    (fun c ->
      Printf.printf "  %-12.2f %14.0f %14.0f\n" c
        (needed ~confidence:c bl_no bl_yes)
        (needed ~confidence:c sw_no sw_yes))
    Detector.confidence_grid
