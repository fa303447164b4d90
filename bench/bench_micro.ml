(* Bechamel micro-benchmarks of the core primitives: per-operation cost of
   the event engine, the median machinery, the statistical kernels, and the
   Steiner-system construction used by the placement planner. *)

open Bechamel
module Toolkit = Bechamel.Toolkit

let engine_events n () =
  let engine = Sw_sim.Engine.create () in
  for i = 1 to n do
    ignore (Sw_sim.Engine.schedule_at engine (Sw_sim.Time.us i) (fun () -> ()))
  done;
  Sw_sim.Engine.run engine

let median3_eval =
  let e = Sw_stats.Dist.exponential ~rate:1. in
  let cdf =
    Sw_stats.Order_stats.median3 e.Sw_stats.Dist.cdf e.Sw_stats.Dist.cdf
      e.Sw_stats.Dist.cdf
  in
  fun () -> ignore (cdf 1.234)

let median_time_3 =
  let times = [| Sw_sim.Time.ms 3; Sw_sim.Time.ms 1; Sw_sim.Time.ms 2 |] in
  fun () -> ignore (Sw_vmm.Replica_group.median_time times)

let chi_square_critical () =
  ignore (Sw_stats.Chi_square.critical_value ~df:9 ~confidence:0.95)

let bose_sts () = ignore (Sw_placement.Steiner.system ~v:5)

let prng =
  let rng = Sw_sim.Prng.create 42L in
  fun () -> ignore (Sw_sim.Prng.exponential rng ~rate:1.)

(* The observability spine's hot-path guarantee: on an engine with no trace
   attached, an instrumentation site costs one branch — no event payload is
   allocated and nothing is formatted. The benchmark mirrors the guarded
   emission idiom every component uses. *)
let trace_emit_absent =
  let engine = Sw_sim.Engine.create () in
  fun () ->
    if Sw_sim.Engine.tracing engine then
      Sw_sim.Engine.emit engine
        (Sw_obs.Event.Packet_delivered
           { vm = 0; replica = 1; seq = 2; virt_ns = 3 })

let counter_incr =
  let registry = Sw_obs.Registry.create () in
  let c = Sw_obs.Registry.counter registry "bench.counter" in
  fun () -> Sw_obs.Registry.Counter.incr c

let histogram_observe =
  let registry = Sw_obs.Registry.create () in
  let h = Sw_obs.Registry.histogram registry "bench.histogram" in
  fun () -> Sw_obs.Registry.Histogram.observe h 12_345

let ping_cloud () =
  (* One full StopWatch delivery round trip. *)
  let cloud = Stopwatch.Cloud.create ~machines:3 () in
  let d =
    Stopwatch.Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:(Sw_apps.Probe.receiver ())
  in
  let client = Stopwatch.Cloud.add_host cloud () in
  Stopwatch.Host.send client ~dst:(Stopwatch.Cloud.vm_address d) ~size:100
    (Sw_net.Packet.App (Sw_net.Msg.Probe_ping 1));
  Stopwatch.Cloud.run cloud ~until:(Sw_sim.Time.ms 100)

let tests =
  Test.make_grouped ~name:"stopwatch"
    [
      Test.make ~name:"engine/1k-events" (Staged.stage (engine_events 1000));
      Test.make ~name:"stats/median3-cdf" (Staged.stage median3_eval);
      Test.make ~name:"vmm/median-of-3-times" (Staged.stage median_time_3);
      Test.make ~name:"stats/chi2-critical" (Staged.stage chi_square_critical);
      Test.make ~name:"placement/bose-sts-v5" (Staged.stage bose_sts);
      Test.make ~name:"sim/prng-exponential" (Staged.stage prng);
      Test.make ~name:"obs/emit-absent-sink" (Staged.stage trace_emit_absent);
      Test.make ~name:"obs/counter-incr" (Staged.stage counter_incr);
      Test.make ~name:"obs/histogram-observe" (Staged.stage histogram_observe);
      Test.make ~name:"cloud/one-delivery-round" (Staged.stage ping_cloud);
    ]

let run () =
  Sw_experiments.Tables.section "Micro-benchmarks (bechamel)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Sw_experiments.Tables.header ~width:16 [ "test"; "ns/run" ];
  List.iter
    (fun (name, result) ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some (e :: _) -> Printf.sprintf "%.1f" e
        | _ -> "n/a"
      in
      Printf.printf "%-40s %16s\n" name estimate)
    rows
