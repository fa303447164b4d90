(* Tests for the experiment drivers — including regression checks that keep
   the reproduced numbers in the paper's ballpark (shape, not absolutes). *)

module Ft = Sw_experiments.File_transfer
module Nb = Sw_experiments.Nfs_bench
module Pb = Sw_experiments.Parsec_bench

let test_http_ratio_shape () =
  let size_bytes = 102_400 in
  let b = Ft.run ~protocol:Ft.Http ~baseline:true ~size_bytes ~runs:1 () in
  let s = Ft.run ~protocol:Ft.Http ~baseline:false ~size_bytes ~runs:1 () in
  let ratio = s.Ft.elapsed_ms /. b.Ft.elapsed_ms in
  (* Paper: < 2.8x for >= 100 KB. Allow a generous band around it. *)
  if ratio < 1.5 || ratio > 4.0 then
    Alcotest.failf "HTTP 100KB ratio %.2f outside the paper's ballpark" ratio

let test_udp_competitive () =
  let size_bytes = 1_048_576 in
  let b = Ft.run ~protocol:Ft.Udp ~baseline:true ~size_bytes ~runs:1 () in
  let s = Ft.run ~protocol:Ft.Udp ~baseline:false ~size_bytes ~runs:1 () in
  let ratio = s.Ft.elapsed_ms /. b.Ft.elapsed_ms in
  (* Paper: competitive with baseline for large files. *)
  if ratio > 1.5 then Alcotest.failf "UDP 1MB ratio %.2f not competitive" ratio

let test_udp_beats_http_under_stopwatch () =
  let size_bytes = 1_048_576 in
  let http = Ft.run ~protocol:Ft.Http ~baseline:false ~size_bytes ~runs:1 () in
  let udp = Ft.run ~protocol:Ft.Udp ~baseline:false ~size_bytes ~runs:1 () in
  if udp.Ft.elapsed_ms >= http.Ft.elapsed_ms then
    Alcotest.fail "NAK-based transport must beat TCP under StopWatch"

let test_runs_averaging () =
  let o = Ft.run ~protocol:Ft.Udp ~baseline:true ~size_bytes:10_240 ~runs:3 () in
  Alcotest.(check int) "three runs" 3 (List.length o.Ft.runs);
  let mean = List.fold_left ( +. ) 0. o.Ft.runs /. 3. in
  Alcotest.(check (float 1e-9)) "mean" mean o.Ft.elapsed_ms

let test_nfs_ratio_shape () =
  let b = Nb.run ~baseline:true ~rate_per_s:50. ~ops:200 in
  let s = Nb.run ~baseline:false ~rate_per_s:50. ~ops:200 in
  Alcotest.(check int) "baseline completes" 200 b.Nb.completed;
  Alcotest.(check int) "stopwatch completes" 200 s.Nb.completed;
  let ratio = s.Nb.mean_latency_ms /. b.Nb.mean_latency_ms in
  (* Paper: <= 2.7x. *)
  if ratio < 1.5 || ratio > 3.5 then
    Alcotest.failf "NFS ratio %.2f outside the paper's ballpark" ratio

let test_parsec_baselines_match_paper () =
  (* The calibration targets Fig. 7(a)'s baseline bars within 15%. *)
  List.iter2
    (fun profile expected_ms ->
      let o = Pb.run ~baseline:true profile in
      let err = Float.abs (o.Pb.runtime_ms -. expected_ms) /. expected_ms in
      if err > 0.15 then
        Alcotest.failf "%s baseline %.0f ms vs paper %.0f ms (%.0f%% off)"
          profile.Sw_apps.Parsec.name o.Pb.runtime_ms expected_ms (err *. 100.))
    Sw_apps.Parsec.all_profiles
    [ 171.; 177.; 1530.; 3730.; 290. ]

let dedup =
  List.find
    (fun p -> p.Sw_apps.Parsec.name = "dedup")
    Sw_apps.Parsec.all_profiles

let test_parsec_overhead_shape () =
  (* Max overhead at most ~2.6x (paper: 2.3x at blackscholes), and overhead
     correlates with disk interrupts. *)
  let profiles = [ Sw_apps.Parsec.ferret; dedup ] in
  List.iter
    (fun profile ->
      let b = Pb.run ~baseline:true profile in
      let s = Pb.run ~baseline:false profile in
      let ratio = s.Pb.runtime_ms /. b.Pb.runtime_ms in
      if ratio < 1.1 || ratio > 2.7 then
        Alcotest.failf "%s overhead %.2f outside band" profile.Sw_apps.Parsec.name
          ratio;
      Alcotest.(check int)
        "interrupt count matches profile" profile.Sw_apps.Parsec.io_count
        s.Pb.disk_interrupts)
    profiles

let test_parsec_overhead_correlates_with_interrupts () =
  let extra profile =
    let b = Pb.run ~baseline:true profile in
    let s = Pb.run ~baseline:false profile in
    s.Pb.runtime_ms -. b.Pb.runtime_ms
  in
  let ferret = extra Sw_apps.Parsec.ferret in
  let dedup = extra dedup in
  (* dedup has ~9.5x the interrupts of ferret; its absolute penalty must be
     several times larger. *)
  if not (dedup > 4. *. ferret) then
    Alcotest.failf "absolute penalty must scale with interrupts (%f vs %f)" dedup
      ferret

let test_outcome_metrics_snapshot () =
  (* Experiment outcomes expose the cloud's metrics snapshot; the bespoke
     counters they used to carry are now served from it. *)
  let o = Nb.run ~baseline:false ~rate_per_s:50. ~ops:40 in
  let m = o.Nb.metrics in
  if Sw_obs.Snapshot.is_empty m then Alcotest.fail "metrics snapshot empty";
  Alcotest.(check bool) "sim event counter present" true
    (Metric.counter m "sim.events.fired" > 0);
  Alcotest.(check bool) "network deliveries present" true
    (Metric.counter m "net.delivered" > 0)

let () =
  Alcotest.run "sw_experiments"
    [
      ( "file-transfer",
        [
          Alcotest.test_case "http ratio shape" `Slow test_http_ratio_shape;
          Alcotest.test_case "udp competitive" `Slow test_udp_competitive;
          Alcotest.test_case "udp beats http under stopwatch" `Slow
            test_udp_beats_http_under_stopwatch;
          Alcotest.test_case "averaging" `Quick test_runs_averaging;
        ] );
      ( "nfs",
        [ Alcotest.test_case "ratio shape" `Slow test_nfs_ratio_shape ] );
      ( "observability",
        [
          Alcotest.test_case "outcome carries metrics snapshot" `Quick
            test_outcome_metrics_snapshot;
        ] );
      ( "parsec",
        [
          Alcotest.test_case "baselines match paper" `Slow
            test_parsec_baselines_match_paper;
          Alcotest.test_case "overhead shape" `Slow test_parsec_overhead_shape;
          Alcotest.test_case "penalty correlates with interrupts" `Slow
            test_parsec_overhead_correlates_with_interrupts;
        ] );
    ]
