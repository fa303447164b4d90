(* Fig. 6: NFS under an nhfsstone-style load: (a) average latency per
   operation vs offered load; (b) TCP packets per operation by direction.
   Paper: StopWatch <= 2.7x baseline, latency growing roughly
   logarithmically; client-to-server packets per op fall as load grows.

   Each (rate, mode) point is an independent simulation; the 5x2 sweep runs
   as one runner fleet, sharded under -j. *)

open Sw_experiments
module Nb = Nfs_bench
module Runner = Sw_runner.Runner
module Report = Sw_runner.Report

let ops = 600

let run ?pool () =
  Tables.section "Fig. 6 — NFS server under nhfsstone load";
  let groups =
    List.map
      (fun rate ->
        ( rate,
          [
            Nb.job ~baseline:true ~rate_per_s:rate ~ops;
            Nb.job ~baseline:false ~rate_per_s:rate ~ops;
          ] ))
      Nb.paper_rates
  in
  let on_event =
    match pool with
    | Some _ ->
        Some (Runner.progress_printer ~total:(2 * List.length groups))
    | None -> None
  in
  let rows =
    List.map
      (fun (rate, outcomes) ->
        match List.map Runner.get outcomes with
        | [ b; s ] -> (rate, b, s)
        | _ -> assert false)
      (Runner.map_groups ?pool ?on_event groups)
  in
  Bench_report.add_metrics
    (Sw_obs.Snapshot.merge_all
       (List.concat_map
          (fun (_, (b : Nb.outcome), (s : Nb.outcome)) ->
            [ b.Nb.metrics; s.Nb.metrics ])
          rows));
  Tables.subsection "Fig. 6(a): average latency per operation (ms)";
  Tables.header ~width:12 [ "ops/s"; "baseline"; "stopwatch"; "ratio"; "done(sw)" ];
  List.iter
    (fun (rate, (b : Nb.outcome), (s : Nb.outcome)) ->
      Tables.row ~width:12
        [
          Tables.f0 rate;
          Tables.f2 b.Nb.mean_latency_ms;
          Tables.f2 s.Nb.mean_latency_ms;
          Tables.f2 (s.Nb.mean_latency_ms /. b.Nb.mean_latency_ms);
          Printf.sprintf "%d/%d" s.Nb.completed s.Nb.issued;
        ])
    rows;
  Tables.subsection "Fig. 6(b): TCP packets per operation (StopWatch run)";
  Tables.header ~width:16 [ "ops/s"; "client->server"; "server->client" ];
  List.iter
    (fun (rate, _, (s : Nb.outcome)) ->
      Tables.row ~width:16
        [
          Tables.f0 rate;
          Tables.f2 s.Nb.client_to_server_per_op;
          Tables.f2 s.Nb.server_to_client_per_op;
        ])
    rows;
  Bench_report.add "fig6"
    (Report.List
       (List.map
          (fun (rate, (b : Nb.outcome), (s : Nb.outcome)) ->
            Report.Obj
              [
                ("rate_per_s", Report.Float rate);
                ("baseline_ms", Report.Float b.Nb.mean_latency_ms);
                ("stopwatch_ms", Report.Float s.Nb.mean_latency_ms);
                ("ratio", Report.Float (s.Nb.mean_latency_ms /. b.Nb.mean_latency_ms));
                ("c2s_per_op", Report.Float s.Nb.client_to_server_per_op);
                ("s2c_per_op", Report.Float s.Nb.server_to_client_per_op);
              ])
          rows))
