module Time = Sw_sim.Time
module Cloud = Stopwatch.Cloud
module Host = Stopwatch.Host

type outcome = {
  vms : int;
  completed_downloads : int;
  mean_latency_ms : float;
  p95_latency_ms : float;
  divergences : int;
}

let run ~machines ~capacity ~vms ~file_bytes ~duration =
  let plan =
    match Sw_placement.Placement.theorem2_place ~n:machines ~c:capacity ~k:vms with
    | Ok plan -> plan
    | Error reason -> invalid_arg ("Utilization.run: " ^ reason)
  in
  let cloud = Cloud.create ~seed:0x07117AL ~machines () in
  let deployments = Cloud.deploy_plan cloud ~plan ~app:(Sw_apps.Http.server) in
  let latencies = Sw_sim.Samples.create () in
  let completed = ref 0 in
  (* One client per VM, downloading the file in a closed loop. *)
  List.iter
    (fun d ->
      let client = Cloud.add_host cloud () in
      let tcp = Sw_apps.Tcp_host.attach client () in
      let rec download () =
        Sw_apps.Http.download tcp ~dst:(Cloud.vm_address d)
          ~file:(Cloud.vm_id d) ~size:file_bytes
          ~on_done:(fun ~elapsed_ms ->
            Sw_sim.Samples.add latencies elapsed_ms;
            incr completed;
            Host.after client (Time.ms 20) download)
          ()
      in
      download ())
    deployments;
  Cloud.run cloud ~until:duration;
  let snap = Cloud.metrics_snapshot cloud in
  let divergences =
    List.fold_left
      (fun acc d ->
        acc
        + Sw_obs.Snapshot.counter snap
            (Printf.sprintf "vm%d.divergences" (Cloud.vm_id d)))
      0 deployments
  in
  {
    vms;
    completed_downloads = !completed;
    mean_latency_ms = Sw_sim.Samples.mean latencies;
    p95_latency_ms =
      (if Sw_sim.Samples.count latencies = 0 then nan
       else Sw_sim.Samples.percentile latencies 0.95);
    divergences;
  }
