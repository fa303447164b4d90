module Time = Sw_sim.Time
module Cloud = Stopwatch.Cloud
module Runner = Sw_runner.Runner

type protocol = Http | Udp

type outcome = {
  elapsed_ms : float;
  runs : float list;
  divergences : int;
  failed_runs : Runner.failure list;
  metrics : Sw_obs.Snapshot.t;
}

let paper_sizes = [ 1_024; 10_240; 102_400; 1_048_576; 10_485_760 ]

let protocol_name = function Http -> "http" | Udp -> "udp"

let one ?config ~seed ~protocol ~baseline ~size_bytes () =
  let cloud = Cloud.create ?config ~seed ~machines:3 () in
  let app =
    match protocol with
    | Http -> Sw_apps.Http.server
    | Udp -> Sw_apps.Udp_file.server
  in
  let d =
    if baseline then Cloud.deploy_baseline cloud ~on:0 ~app
    else Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app
  in
  let client = Cloud.add_host cloud () in
  let result = ref nan in
  (match protocol with
  | Http ->
      let tcp = Sw_apps.Tcp_host.attach client () in
      Sw_apps.Http.download tcp ~dst:(Cloud.vm_address d) ~file:1 ~size:size_bytes
        ~on_done:(fun ~elapsed_ms -> result := elapsed_ms)
        ()
  | Udp ->
      Sw_apps.Udp_file.fetch client ~dst:(Cloud.vm_address d) ~file:1
        ~size:size_bytes
        ~on_done:(fun ~elapsed_ms ~naks:_ -> result := elapsed_ms));
  (* Run in short spans and stop as soon as the transfer completes, so idle
     guests don't spin through a long fixed horizon. 120 s caps even a 10 MB
     window-limited StopWatch download. *)
  let rec advance elapsed_ms =
    if Float.is_nan !result && elapsed_ms < 120_000 then begin
      Cloud.run_span cloud (Time.ms 250);
      advance (elapsed_ms + 250)
    end
  in
  advance 0;
  let snap = Cloud.metrics_snapshot cloud in
  ( !result,
    Sw_obs.Snapshot.counter snap (Printf.sprintf "vm%d.divergences" (Cloud.vm_id d)),
    snap )

let jobs ?config ?(seed = 0xF16_5L) ~protocol ~baseline ~size_bytes ~runs () =
  if runs < 1 then invalid_arg "File_transfer.jobs: need >= 1 run";
  List.init runs (fun i ->
      (* Each run's seed is fixed in its job before dispatch. *)
      let seed = Int64.add seed (Int64.of_int (i * 7919)) in
      let key =
        Printf.sprintf "fig5/%s/%s/%dB/run%d" (protocol_name protocol)
          (if baseline then "base" else "sw")
          size_bytes i
      in
      (key, fun () -> one ?config ~seed ~protocol ~baseline ~size_bytes ()))

let collect outcomes =
  let results = Runner.successes outcomes in
  let failed_runs = Runner.failures outcomes in
  if results = [] then
    {
      elapsed_ms = nan;
      runs = [];
      divergences = 0;
      failed_runs;
      metrics = Sw_obs.Snapshot.empty;
    }
  else
    let times = List.map (fun (t, _, _) -> t) results in
    let divergences = List.fold_left (fun acc (_, d, _) -> acc + d) 0 results in
    {
      elapsed_ms =
        List.fold_left ( +. ) 0. times /. float_of_int (List.length times);
      runs = times;
      divergences;
      failed_runs;
      metrics =
        Sw_obs.Snapshot.merge_all (List.map (fun (_, _, m) -> m) results);
    }

let run ?config ?seed ?pool ~protocol ~baseline ~size_bytes ~runs () =
  collect
    (Runner.map ?pool (jobs ?config ?seed ~protocol ~baseline ~size_bytes ~runs ()))
