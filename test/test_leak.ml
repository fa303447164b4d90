(* Tests for the leak-detection toolkit: incomplete-beta / probit goldens,
   Welch's t and Cohen's d against closed-form values, binned mutual
   information calibration (independent ≈ 0, identical ≈ H(X)), KS
   p-values, false-positive calibration of the whole battery on
   same-distribution pairs, shifted-mean detection, lineage
   observation extraction on a synthetic trace, and the audit driver's
   verdict, attribution and counters. *)

module Special = Sw_stats.Special
module Ttest = Sw_stats.Ttest
module Mi = Sw_stats.Mutual_info
module Ks = Sw_stats.Ks
module Prng = Sw_sim.Prng
module Detector = Sw_leak.Detector
module Audit = Sw_leak.Audit
module Trace = Sw_obs.Trace
module Event = Sw_obs.Event
module Lineage = Sw_obs.Lineage
module Registry = Sw_obs.Registry
module Snapshot = Sw_obs.Snapshot

let close ?(eps = 1e-6) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let draw rng n ~mean ~stddev =
  Array.init n (fun _ -> Prng.normal rng ~mean ~stddev)

(* --- Special functions --------------------------------------------------- *)

let test_betai () =
  (* I_x(1,1) = x. *)
  List.iter
    (fun x -> close ~eps:1e-12 "I_x(1,1)" x (Special.betai 1. 1. x))
    [ 0.; 0.123; 0.5; 0.987; 1. ];
  (* I_0.5(a,a) = 0.5 by symmetry. *)
  close ~eps:1e-10 "I_.5(.5,.5)" 0.5 (Special.betai 0.5 0.5 0.5);
  close ~eps:1e-10 "I_.5(3,3)" 0.5 (Special.betai 3. 3. 0.5);
  (* Reflection: I_x(a,b) = 1 - I_{1-x}(b,a). *)
  let a, b, x = (2.5, 4., 0.3) in
  close ~eps:1e-10 "reflection"
    (1. -. Special.betai b a (1. -. x))
    (Special.betai a b x);
  (* I_x(1,2) = 1 - (1-x)^2. *)
  close ~eps:1e-10 "I_.25(1,2)" (1. -. (0.75 *. 0.75)) (Special.betai 1. 2. 0.25)

let test_probit () =
  close ~eps:1e-9 "norm_cdf 0" 0.5 (Special.norm_cdf 0.);
  close ~eps:2e-7 "norm_cdf 1.96" 0.975 (Special.norm_cdf 1.959964);
  List.iter
    (fun x -> close ~eps:1e-6 "probit roundtrip" x
        (Special.probit (Special.norm_cdf x)))
    [ -2.3; -0.5; 0.; 1.3; 3.1 ]

(* --- Welch / Cohen ------------------------------------------------------- *)

let test_welch_golden () =
  (* Equal variances 2.5, means 3 vs 4, n = 5: t = -1, Welch df = 8. *)
  let a = [| 1.; 2.; 3.; 4.; 5. |] and b = [| 2.; 3.; 4.; 5.; 6. |] in
  let r = Ttest.welch a b in
  close ~eps:1e-12 "t" (-1.) r.Ttest.t_stat;
  close ~eps:1e-9 "df" 8. r.Ttest.df;
  (* Two-sided p for |t| = 1 at 8 df (reference value 0.346594). *)
  close ~eps:1e-4 "p" 0.346594 r.Ttest.p_value;
  close ~eps:1e-9 "d" (-1. /. sqrt 2.5) (Ttest.cohens_d a b)

let test_welch_degenerate () =
  let r = Ttest.welch [| 2.; 2. |] [| 2.; 2. |] in
  close "equal constants p" 1. r.Ttest.p_value;
  close "equal constants t" 0. r.Ttest.t_stat;
  let r = Ttest.welch [| 1.; 1. |] [| 2.; 2. |] in
  close "distinct constants p" 0. r.Ttest.p_value;
  Alcotest.(check bool) "distinct constants t" true
    (Float.is_integer r.Ttest.t_stat = false || Float.abs r.Ttest.t_stat = infinity)

(* --- Mutual information -------------------------------------------------- *)

let test_mi_independent () =
  (* Same distribution on both sides: I(C; X) should sit at the noise
     floor and the G-test should not reject. *)
  let rng = Prng.create 7L in
  let null = draw rng 600 ~mean:10. ~stddev:2. in
  let alt = draw rng 600 ~mean:10. ~stddev:2. in
  let m = Mi.against_labels ~null ~alt () in
  Alcotest.(check bool)
    (Printf.sprintf "independent mi small (%g bits)" m.Mi.mi_bits)
    true
    (Float.abs m.Mi.mi_bits < 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "independent p large (%g)" m.Mi.p_value)
    true (m.Mi.p_value > 0.01)

let test_mi_identical () =
  (* A stream paired with itself carries its full entropy. *)
  let rng = Prng.create 11L in
  let x = draw rng 512 ~mean:0. ~stddev:1. in
  let m = Mi.paired x x in
  let h = Mi.entropy_bits x in
  close ~eps:1e-9 "I(X;X) = H(X)" h m.Mi.plugin_bits;
  Alcotest.(check bool) "entropy near log2 bins" true
    (h > 0.9 *. Float.log2 (float_of_int m.Mi.bins))

let test_mi_separated () =
  let rng = Prng.create 13L in
  let null = draw rng 400 ~mean:0. ~stddev:1. in
  let alt = draw rng 400 ~mean:4. ~stddev:1. in
  let m = Mi.against_labels ~null ~alt () in
  Alcotest.(check bool) "separated mi large" true (m.Mi.mi_bits > 0.5);
  Alcotest.(check bool) "separated p tiny" true (m.Mi.p_value < 1e-6)

(* --- KS p-value ---------------------------------------------------------- *)

let test_ks_p_value () =
  let xs = Array.init 200 (fun i -> float_of_int i) in
  Alcotest.(check bool) "identical p ~ 1" true (Ks.p_value xs xs > 0.99);
  let ys = Array.map (fun v -> v +. 1000.) xs in
  Alcotest.(check bool) "disjoint p ~ 0" true (Ks.p_value xs ys < 1e-10)

(* --- Battery calibration -------------------------------------------------- *)

(* Same-distribution pairs: each p-value detector's false-positive count
   over [trials] runs must stay within a generous binomial band around
   [alpha * trials] (mean 2 at alpha = 0.01, sigma ~ 1.4; 12 is well past
   five sigma). Deterministic seed, so this never flakes. *)
let test_battery_false_positives () =
  let trials = 200 in
  let rng = Prng.create 0xCA11B8L in
  let counts = Hashtbl.create 8 in
  for _ = 1 to trials do
    let null = draw rng 60 ~mean:5. ~stddev:1.5 in
    let alt = draw rng 60 ~mean:5. ~stddev:1.5 in
    List.iter
      (fun (d : Detector.t) ->
        let r = d.Detector.verdict ~null ~alt in
        if r.Detector.leak then
          Hashtbl.replace counts d.Detector.name
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts d.Detector.name)))
      Detector.all
  done;
  List.iter
    (fun (d : Detector.t) ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts d.Detector.name) in
      if c > 12 then
        Alcotest.failf "%s flagged %d of %d same-distribution pairs"
          d.Detector.name c trials)
    Detector.all

let test_battery_shifted_mean () =
  let rng = Prng.create 0x5E1F7L in
  let null = draw rng 150 ~mean:10. ~stddev:1. in
  let alt = draw rng 150 ~mean:11. ~stddev:1. in
  List.iter
    (fun (d : Detector.t) ->
      let r = d.Detector.verdict ~null ~alt in
      Alcotest.(check bool)
        (Printf.sprintf "%s flags a 1-sigma mean shift (p=%g effect=%g)"
           d.Detector.name r.Detector.p_value r.Detector.effect)
        true r.Detector.leak)
    Detector.all

let test_undersized_verdict () =
  List.iter
    (fun (d : Detector.t) ->
      let r = d.Detector.verdict ~null:[| 1.; 2. |] ~alt:[| 1.; 2. |] in
      Alcotest.(check bool) (d.Detector.name ^ " skipped") true
        (Detector.skipped r);
      Alcotest.(check bool) (d.Detector.name ^ " no leak") false r.Detector.leak)
    Detector.all

(* --- Lineage observation extraction --------------------------------------- *)

let entry at_ns event = { Trace.at_ns; event }

(* Two complete chains for vm 0 plus egress activity: median-adoption lag
   (propose -> adopt anchored at the replica's own proposal), one delivery
   gap, two ingress latencies, two egress release gaps — all in
   nanoseconds exact enough to check in milliseconds. *)
let test_lineage_observations () =
  let entries =
    [
      entry 1_000_000 (Event.Ingress_replicated { vm = 0; ingress_seq = 0; copies = 1; size = 100 });
      entry 1_200_000
        (Event.Packet_proposed
           { vm = 0; observer = 0; proposer = 0; ingress_seq = 0; virt_ns = 5_000_000 });
      entry 1_700_000
        (Event.Median_adopted
           { vm = 0; replica = 0; ingress_seq = 0; virt_ns = 5_000_000; proposals = [ (0, 5_000_000) ] });
      entry 5_000_000
        (Event.Packet_delivered { vm = 0; replica = 0; seq = 0; virt_ns = 5_000_000 });
      entry 6_000_000 (Event.Ingress_replicated { vm = 0; ingress_seq = 1; copies = 1; size = 100 });
      entry 6_100_000
        (Event.Packet_proposed
           { vm = 0; observer = 0; proposer = 0; ingress_seq = 1; virt_ns = 9_000_000 });
      entry 6_400_000
        (Event.Median_adopted
           { vm = 0; replica = 0; ingress_seq = 1; virt_ns = 9_000_000; proposals = [ (0, 9_000_000) ] });
      entry 9_000_000
        (Event.Packet_delivered { vm = 0; replica = 0; seq = 1; virt_ns = 9_000_000 });
      entry 2_000_000 (Event.Egress_released { vm = 0; seq = 0; rank = 0; copies = 1 });
      entry 2_500_000 (Event.Egress_released { vm = 0; seq = 1; rank = 0; copies = 1 });
      entry 3_500_000 (Event.Egress_released { vm = 0; seq = 2; rank = 0; copies = 1 });
    ]
  in
  let obs = Lineage.observations (Lineage.of_entries entries) in
  let get mech = List.assoc_opt (0, mech) obs in
  (match get Lineage.Median_adoption with
  | Some [| a; b |] ->
      close "pa lag 1" 0.5 a;
      close "pa lag 2" 0.3 b
  | _ -> Alcotest.fail "median-adoption series shape");
  (match get Lineage.Delivery_gap with
  | Some [| g |] -> close "delivery gap" 4. g
  | _ -> Alcotest.fail "delivery-gap series shape");
  (match get Lineage.Egress_release with
  | Some [| a; b |] ->
      close "egress gap 1" 0.5 a;
      close "egress gap 2" 1. b
  | _ -> Alcotest.fail "egress-release series shape");
  match get Lineage.Ingress_latency with
  | Some [| a; b |] ->
      close "latency 1" 4. a;
      close "latency 2" 3. b
  | _ -> Alcotest.fail "ingress-latency series shape"

(* --- Audit driver ---------------------------------------------------------- *)

let test_audit_verdict_and_counters () =
  let rng = Prng.create 0xA0D17L in
  let registry = Registry.create () in
  let clean_null = draw rng 100 ~mean:3. ~stddev:0.5 in
  let clean_alt = draw rng 100 ~mean:3. ~stddev:0.5 in
  let hot_null = draw rng 100 ~mean:3. ~stddev:0.5 in
  let hot_alt = draw rng 100 ~mean:6. ~stddev:0.5 in
  let audit =
    Audit.run ~registry ~label:"t"
      [
        { Audit.key = "clean"; null = clean_null; alt = clean_alt };
        { Audit.key = "hot"; null = hot_null; alt = hot_alt };
        { Audit.key = "short"; null = [| 1. |]; alt = [| 2. |] };
      ]
  in
  Alcotest.(check bool) "audit leaks" true (Audit.leak audit);
  (match Audit.attribution audit with
  | [ ("hot", detectors) ] ->
      Alcotest.(check int) "all detectors flag hot" 5 (List.length detectors)
  | att ->
      Alcotest.failf "attribution shape: [%s]"
        (String.concat "; " (List.map fst att)));
  (match Audit.find audit "clean" with
  | Some f -> Alcotest.(check (list string)) "clean series" [] f.Audit.leaking
  | None -> Alcotest.fail "clean series missing");
  let snap = Registry.snapshot registry in
  Alcotest.(check int) "series counter" 3 (Snapshot.counter snap "leak.detector.series");
  Alcotest.(check int) "verdict counter" 15
    (Snapshot.counter snap "leak.detector.verdicts");
  (* The short series is skipped by all five detectors; each skip counts
     its n_null + n_alt = 2 samples. *)
  Alcotest.(check int) "dropped counter" 10
    (Snapshot.counter snap "leak.detector.samples_dropped")

let test_audit_report_deterministic () =
  let rng = Prng.create 0xF00DL in
  let null = draw rng 64 ~mean:1. ~stddev:0.2 in
  let alt = draw rng 64 ~mean:2. ~stddev:0.2 in
  let series = [ { Audit.key = "k"; null; alt } ] in
  let a = Audit.run ~label:"x" series and b = Audit.run ~label:"x" series in
  Alcotest.(check string) "byte-identical report"
    (Sw_runner.Report.to_string (Audit.to_report a))
    (Sw_runner.Report.to_string (Audit.to_report b))

let () =
  Alcotest.run "leak"
    [
      ( "special",
        [
          Alcotest.test_case "betai goldens" `Quick test_betai;
          Alcotest.test_case "probit" `Quick test_probit;
        ] );
      ( "welch",
        [
          Alcotest.test_case "golden" `Quick test_welch_golden;
          Alcotest.test_case "degenerate" `Quick test_welch_degenerate;
        ] );
      ( "mutual-info",
        [
          Alcotest.test_case "independent" `Quick test_mi_independent;
          Alcotest.test_case "identical" `Quick test_mi_identical;
          Alcotest.test_case "separated" `Quick test_mi_separated;
        ] );
      ("ks", [ Alcotest.test_case "p-value" `Quick test_ks_p_value ]);
      ( "battery",
        [
          Alcotest.test_case "false positives" `Quick
            test_battery_false_positives;
          Alcotest.test_case "shifted mean" `Quick test_battery_shifted_mean;
          Alcotest.test_case "undersized" `Quick test_undersized_verdict;
        ] );
      ( "lineage",
        [ Alcotest.test_case "observations" `Quick test_lineage_observations ] );
      ( "audit",
        [
          Alcotest.test_case "verdict and counters" `Quick
            test_audit_verdict_and_counters;
          Alcotest.test_case "deterministic report" `Quick
            test_audit_report_deterministic;
        ] );
    ]
