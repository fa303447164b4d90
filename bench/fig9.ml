(* Fig. 9-style overhead-vs-load sweep: client-observed response times of
   the sw_workload KV service under StopWatch vs unmodified Xen, as the
   offered (open-loop) load scales across a multiplier ladder, for two
   arrival shapes (diurnal sinusoid and flash crowd).

   Every point is an independent simulation built from a Dsl.workload value
   whose seed is fixed in the spec before dispatch, so the sweep shards
   across -j N with byte-identical BENCH_results.json output. Quantiles are
   read off the shared Buckets ladder of the workload.response_ns
   histogram. *)

open Sw_experiments
module Runner = Sw_runner.Runner
module Report = Sw_runner.Report
module Dsl = Sw_workload.Dsl
module Run = Sw_workload.Run
module Arrival = Sw_workload.Arrival
module Time = Sw_sim.Time

let classes =
  [
    { Sw_workload.Flowgen.name = "page"; weight = 0.8; resp_bytes = 2048; cached = true };
    { Sw_workload.Flowgen.name = "asset"; weight = 0.2; resp_bytes = 8192; cached = true };
  ]

let workload ~arrival ~stopwatch ~duration ~multipliers : Dsl.workload =
  {
    Dsl.seed = 0xF19ACCL;
    duration;
    replicas = 3;
    stopwatch;
    arrival;
    classes;
    keys = 512;
    theta = 1.1;
    cache = Sw_workload.Kv.default_config.Sw_workload.Kv.cache;
    pool = 6;
    max_per_conn = 64;
    request_bytes = 120;
    compute_branches = 20_000;
    header_bytes = 64;
    faults = [];
    attack = None;
    topology = None;
    load_multipliers = multipliers;
    leak_audit = false;
  }

let shapes duration =
  [
    ( "diurnal",
      Arrival.Diurnal
        { base_per_s = 50.; amplitude = 0.6; period = Time.scale duration 0.5 }
    );
    ( "flash",
      Arrival.Flash
        {
          base_per_s = 30.;
          peak_per_s = 300.;
          at = Time.scale duration 0.4;
          ramp = Time.scale duration 0.05;
          hold = Time.scale duration 0.2;
        } );
  ]

let run ?pool ~quick () =
  Tables.section
    "Fig. 9 — response-time overhead vs offered load (workload engine)";
  let duration = if quick then Time.of_float_s 1.5 else Time.s 3 in
  let multipliers = if quick then [ 1. ] else [ 0.5; 1.; 2.; 4. ] in
  let variants =
    List.concat_map
      (fun (shape, arrival) ->
        List.concat_map
          (fun (backend, stopwatch) ->
            Dsl.workload_variants
              ~name:(Printf.sprintf "fig9/%s/%s" shape backend)
              (workload ~arrival ~stopwatch ~duration ~multipliers))
          [ ("sw", true); ("base", false) ])
      (shapes duration)
  in
  let jobs =
    List.map
      (fun (key, w) -> (key, fun () -> Run.run w))
      variants
  in
  let on_event =
    match pool with
    | Some _ -> Some (Runner.progress_printer ~total:(List.length jobs))
    | None -> None
  in
  let results =
    List.map2
      (fun (key, _) r -> (key, Runner.get r))
      variants
      (Runner.map ?pool ?on_event jobs)
  in
  Bench_report.add_metrics
    (Sw_obs.Snapshot.merge_all (List.map (fun (_, r) -> r.Run.metrics) results));
  Tables.header ~width:12
    [ "shape"; "xload"; "base p50"; "base p99"; "sw p50"; "sw p99"; "ovh p50%" ];
  List.iter
    (fun (shape, _) ->
      List.iter
        (fun m ->
          let find backend =
            let key =
              if multipliers = [ 1. ] then
                Printf.sprintf "fig9/%s/%s" shape backend
              else Printf.sprintf "fig9/%s/%s/x%g" shape backend m
            in
            List.assoc key results
          in
          let sw = find "sw" and base = find "base" in
          let overhead =
            if base.Run.p50_ms > 0. then
              100. *. ((sw.Run.p50_ms /. base.Run.p50_ms) -. 1.)
            else 0.
          in
          Tables.row ~width:12
            [
              shape;
              Tables.f2 m;
              Tables.f2 base.Run.p50_ms;
              Tables.f2 base.Run.p99_ms;
              Tables.f2 sw.Run.p50_ms;
              Tables.f2 sw.Run.p99_ms;
              Tables.f0 overhead;
            ])
        multipliers)
    (shapes duration);
  Bench_report.add "fig9"
    (Report.Obj
       (List.map
          (fun (key, r) ->
            ( key,
              Report.Obj
                [
                  ("issued", Report.Int r.Run.issued);
                  ("completed", Report.Int r.Run.completed);
                  ("hits", Report.Int r.Run.hits);
                  ("misses", Report.Int r.Run.misses);
                  ("p50_ms", Report.Float r.Run.p50_ms);
                  ("p99_ms", Report.Float r.Run.p99_ms);
                ] ))
          results))
