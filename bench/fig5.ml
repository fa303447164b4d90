(* Fig. 5: HTTP and UDP file-retrieval latency, baseline vs StopWatch,
   1 KB .. 10 MB. Paper reference points (their testbed, wireless client):
   HTTP loses < 2.8x for >= 100 KB; UDP over StopWatch is competitive with
   baseline for >= 100 KB.

   The 2 protocols x 5 sizes x 2 modes x [runs] replicated downloads are
   independent simulations; they run as one flat job fleet on the runner,
   so `main.exe fig5 -j N` shards them across N domains with output
   identical to the sequential run. *)

open Sw_experiments
module Ft = File_transfer
module Runner = Sw_runner.Runner
module Report = Sw_runner.Report

let runs = 3

type group = { protocol : Ft.protocol; size : int; baseline : bool }

let groups =
  List.concat_map
    (fun protocol ->
      List.concat_map
        (fun size ->
          List.map
            (fun baseline ->
              ( { protocol; size; baseline },
                Ft.jobs ~protocol ~baseline ~size_bytes:size ~runs ))
            [ true; false ])
        Ft.paper_sizes)
    [ Ft.Http; Ft.Udp ]

let print_rows label rows =
  Tables.subsection label;
  Tables.header ~width:12 [ "size (KB)"; "baseline ms"; "stopwatch ms"; "ratio"; "div" ];
  List.iter
    (fun (size, (b : Ft.outcome), (s : Ft.outcome)) ->
      Tables.row ~width:12
        [
          string_of_int (size / 1024);
          Tables.f1 b.Ft.elapsed_ms;
          Tables.f1 s.Ft.elapsed_ms;
          Tables.f2 (s.Ft.elapsed_ms /. b.Ft.elapsed_ms);
          string_of_int s.Ft.divergences;
        ])
    rows

let json_rows rows =
  Report.List
    (List.concat_map
       (fun (protocol, per_size) ->
         List.map
           (fun (size, (b : Ft.outcome), (s : Ft.outcome)) ->
             Report.Obj
               [
                 ("protocol", Report.String protocol);
                 ("size_bytes", Report.Int size);
                 ("baseline_ms", Report.Float b.Ft.elapsed_ms);
                 ("stopwatch_ms", Report.Float s.Ft.elapsed_ms);
                 ("ratio", Report.Float (s.Ft.elapsed_ms /. b.Ft.elapsed_ms));
                 ("divergences", Report.Int s.Ft.divergences);
               ])
           per_size)
       rows)

let run ?pool () =
  Tables.section "Fig. 5 — HTTP and UDP file-retrieval latency";
  let total = List.fold_left (fun n (_, js) -> n + List.length js) 0 groups in
  let on_event =
    match pool with
    | Some _ -> Some (Runner.progress_printer ~total)
    | None -> None
  in
  let collected =
    List.map
      (fun (g, outcomes) -> (g, Ft.collect outcomes))
      (Runner.map_groups ?pool ?on_event groups)
  in
  let rows_for protocol =
    List.filter_map
      (fun size ->
        let find baseline =
          List.assoc_opt { protocol; size; baseline } collected
        in
        match (find true, find false) with
        | Some b, Some s -> Some (size, b, s)
        | _ -> None)
      Ft.paper_sizes
  in
  let http = rows_for Ft.Http and udp = rows_for Ft.Udp in
  Bench_report.add_metrics
    (Sw_obs.Snapshot.merge_all
       (List.map (fun (_, (o : Ft.outcome)) -> o.Ft.metrics) collected));
  print_rows "HTTP (TCP; each average of 3 runs)" http;
  print_rows "UDP with NAK-based reliability" udp;
  let failures =
    List.concat_map (fun (_, (o : Ft.outcome)) -> o.Ft.failed_runs) collected
  in
  if failures <> [] then begin
    Tables.subsection "Failed runs (excluded from the means)";
    List.iter
      (fun f -> Printf.printf "  %s\n" (Format.asprintf "%a" Runner.pp_failure f))
      failures
  end;
  Bench_report.add "fig5"
    (Report.Obj
       [
         ("rows", json_rows [ ("http", http); ("udp", udp) ]);
         ("failures", Bench_report.failures_json failures);
       ])
