(* Fig. 4: virtual inter-packet delivery times at an attacker VM's replicas
   with a coresident file-serving victim vs without, from full simulations;
   and the observations needed to distinguish the two, with and without
   StopWatch.

   The four 60 s scenario simulations are independent; they run as one
   runner fleet (sharded under -j), each job's seed fixed in its spec.

   The scenario family itself is data: examples/fig4.scn, loaded through the
   sw_workload DSL — the compiled specs are structurally identical to the
   hand-built list this file used to carry, so the bench output is unchanged
   byte for byte. *)

open Sw_experiments
module Scenario = Sw_attack.Scenario
module Runner = Sw_runner.Runner
module Report = Sw_runner.Report
module Detector = Sw_leak.Detector

let load_specs () =
  match Scenarios.load "fig4.scn" with
  | { Sw_workload.Dsl.kind = Sw_workload.Dsl.Attack a; _ } ->
      Sw_workload.Dsl.attack_specs a
  | _ -> failwith "fig4.scn: expected kind = \"attack\""

let cdf_table sw_no sw_yes =
  Tables.subsection
    "Fig. 4(a): CDF of virtual inter-packet delivery times (StopWatch, ms)";
  let ecdf samples x =
    let n = Array.length samples in
    let c = Array.fold_left (fun acc v -> if v <= x then acc + 1 else acc) 0 samples in
    float_of_int c /. float_of_int n
  in
  Tables.header ~width:12 [ "ms"; "3 baselines"; "2 base+1vic" ];
  List.iter
    (fun x ->
      Tables.row ~width:12
        [ Tables.f0 x; Tables.f2 (ecdf sw_no x); Tables.f2 (ecdf sw_yes x) ])
    [ 5.; 10.; 20.; 30.; 40.; 60.; 80. ]

let run ?pool () =
  Tables.section "Fig. 4 — attacker observations under a coresident victim (simulated)";
  let specs = load_specs () in
  let jobs =
    List.map
      (fun (key, spec) -> (key, fun () -> Scenario.run spec))
      specs
  in
  let on_event =
    match pool with
    | Some _ -> Some (Runner.progress_printer ~total:(List.length jobs))
    | None -> None
  in
  let results = List.map Runner.get (Runner.map ?pool ?on_event jobs) in
  let sw_no, sw_yes, bl_no, bl_yes =
    match results with
    | [ a; b; c; d ] -> (a, b, c, d)
    | _ -> assert false
  in
  (* One merged snapshot over the four scenario clouds; merge is exact, so
     the bytes in BENCH_results.json are worker-count independent. *)
  Bench_report.add_metrics
    (Sw_obs.Snapshot.merge_all
       (List.map (fun r -> r.Scenario.metrics) results));
  cdf_table sw_no.Scenario.attacker_inter_delivery_ms
    sw_yes.Scenario.attacker_inter_delivery_ms;
  Tables.subsection "Fig. 4(b): observations needed to detect the victim (chi-square)";
  Tables.header ~width:12 [ "confidence"; "with SW"; "without SW" ];
  let chi = Detector.chi_square and ks = Detector.ks in
  let needed (d : Detector.t) ~confidence null alt =
    d.Detector.observations_needed ~null ~alt ~confidence
  in
  List.iter
    (fun c ->
      let delivery = needed chi ~confidence:c in
      Tables.row ~width:12
        [
          Tables.f2 c;
          Tables.f0
            (delivery sw_no.Scenario.attacker_inter_delivery_ms
               sw_yes.Scenario.attacker_inter_delivery_ms);
          Tables.f0
            (delivery bl_no.Scenario.attacker_inter_delivery_ms
               bl_yes.Scenario.attacker_inter_delivery_ms);
        ])
    Detector.confidence_grid;
  Tables.subsection "Cross-check: Kolmogorov-Smirnov distinguisher at 0.95";
  let ks95 null alt =
    needed ks ~confidence:0.95 null.Scenario.attacker_inter_delivery_ms
      alt.Scenario.attacker_inter_delivery_ms
  in
  let ks_sw = ks95 sw_no sw_yes and ks_bl = ks95 bl_no bl_yes in
  Printf.printf "  with StopWatch: %.0f observations; without: %.0f\n" ks_sw ks_bl;
  Tables.subsection
    "External observer (Sec. VI): real inter-arrival times of attacker output";
  let observer d null alt =
    needed d ~confidence:0.95 null.Scenario.observer_inter_arrival_ms
      alt.Scenario.observer_inter_arrival_ms
  in
  let ks_ext = observer ks and chi_ext = observer chi in
  Printf.printf
    "  chi-square@0.95: with SW %.0f obs, without %.0f; KS@0.95: with %.0f, \
     without %.0f\n"
    (chi_ext sw_no sw_yes) (chi_ext bl_no bl_yes) (ks_ext sw_no sw_yes)
    (ks_ext bl_no bl_yes);
  Printf.printf "\n(divergences: sw=%d / %d deliveries; samples n=%d)\n"
    sw_yes.Scenario.divergences sw_yes.Scenario.deliveries
    (Array.length sw_yes.Scenario.attacker_inter_delivery_ms);
  Bench_report.add "fig4"
    (Report.Obj
       [
         ("deliveries", Report.Int sw_yes.Scenario.deliveries);
         ("divergences", Report.Int sw_yes.Scenario.divergences);
         ("ks95_with_stopwatch", Report.Float ks_sw);
         ("ks95_without_stopwatch", Report.Float ks_bl);
       ])
