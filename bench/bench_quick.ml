(* `main.exe quick`: a down-scaled subset of the headline experiments run
   through the runner, fast enough to sit alongside `dune runtest` (the
   @bench-quick alias), writing the same BENCH_results.json so CI gets a
   perf/regression data point from every build.

   Every job carries [(latency_ms, metrics snapshot)]; the snapshots merge
   into the run's top-level "metrics" object, so quick mode also exercises
   the observability export end to end. *)

open Sw_experiments
module Ft = File_transfer
module Runner = Sw_runner.Runner
module Report = Sw_runner.Report
module Snapshot = Sw_obs.Snapshot

let mode ~baseline = if baseline then "base" else "sw"

let ft_group ~protocol ~baseline =
  ( Printf.sprintf "download/%s/%s"
      (match protocol with Ft.Http -> "http" | Ft.Udp -> "udp")
      (mode ~baseline),
    List.map
      (fun (key, f) ->
        ( key,
          fun () ->
            let ms, _div, metrics = f () in
            (ms, metrics) ))
      (Ft.jobs ~protocol ~baseline ~size_bytes:102_400 ~runs:2 ()) )

let nfs_group ~baseline =
  let key, f = Nfs_bench.job ~baseline ~rate_per_s:100. ~ops:150 () in
  ( Printf.sprintf "nfs/%s" (mode ~baseline),
    [
      ( key,
        fun () ->
          let o = f () in
          (o.Nfs_bench.mean_latency_ms, o.Nfs_bench.metrics) );
    ] )

let parsec_group ~baseline =
  let key, f = Parsec_bench.job ~baseline Sw_apps.Parsec.ferret in
  ( Printf.sprintf "parsec-ferret/%s" (mode ~baseline),
    [
      ( key,
        fun () ->
          let o = f () in
          (o.Parsec_bench.runtime_ms, o.Parsec_bench.metrics) );
    ] )

let groups =
  [
    ft_group ~protocol:Ft.Http ~baseline:true;
    ft_group ~protocol:Ft.Http ~baseline:false;
    ft_group ~protocol:Ft.Udp ~baseline:true;
    ft_group ~protocol:Ft.Udp ~baseline:false;
    nfs_group ~baseline:true;
    nfs_group ~baseline:false;
    parsec_group ~baseline:true;
    parsec_group ~baseline:false;
  ]

let run ?pool () =
  Tables.section "Quick bench (down-scaled subset via the runner)";
  let total = List.fold_left (fun n (_, js) -> n + List.length js) 0 groups in
  let on_event =
    match pool with
    | Some _ -> Some (Runner.progress_printer ~total)
    | None -> None
  in
  let collected = Runner.map_groups ?pool ?on_event groups in
  Tables.header ~width:24 [ "experiment"; "mean ms"; "runs"; "failed" ];
  let entries =
    List.map
      (fun (name, outcomes) ->
        (* Aggregate replicated runs with Summary.merge — the same path a
           sharded sweep uses, so quick mode also guards that plumbing. *)
        let summary =
          Runner.merge_summaries
            (List.map
               (fun o ->
                 Result.map
                   (fun (ms, _metrics) ->
                     let s = Sw_sim.Summary.create () in
                     Sw_sim.Summary.add s ms;
                     s)
                   o)
               outcomes)
        in
        Bench_report.add_metrics
          (Snapshot.merge_all
             (List.map snd (Runner.successes outcomes)));
        let failures = Runner.failures outcomes in
        Tables.row ~width:24
          [
            name;
            Tables.f1 (Sw_sim.Summary.mean summary);
            string_of_int (Sw_sim.Summary.count summary);
            string_of_int (List.length failures);
          ];
        ( name,
          Report.Obj
            [
              ("latency_ms", Report.of_summary summary);
              ("failures", Bench_report.failures_json failures);
            ] ))
      collected
  in
  Bench_report.add "quick" (Report.Obj entries)
