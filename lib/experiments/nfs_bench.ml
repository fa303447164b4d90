module Time = Sw_sim.Time
module Cloud = Stopwatch.Cloud

type outcome = {
  mean_latency_ms : float;
  completed : int;
  issued : int;
  client_to_server_per_op : float;
  server_to_client_per_op : float;
  divergences : int;
  metrics : Sw_obs.Snapshot.t;
}

let paper_rates = [ 25.; 50.; 100.; 200.; 400. ]

let nfs_config = { Sw_vmm.Config.default with Sw_vmm.Config.delta_n = Time.ms 8 }

let seed = 0x4F5_1L

let run ~baseline ~rate_per_s ~ops =
  let cloud = Cloud.create ~config:nfs_config ~seed ~machines:3 () in
  let d =
    if baseline then Cloud.deploy_baseline cloud ~on:0 ~app:Sw_apps.Nfs.server
    else Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:Sw_apps.Nfs.server
  in
  let client = Cloud.add_host cloud () in
  let tcp = Sw_apps.Tcp_host.attach client ~config:Sw_apps.Nfs.client_tcp_config () in
  let get =
    Sw_apps.Nfs.run_client tcp ~dst:(Cloud.vm_address d) ~rate_per_s ~procs:5 ~ops
      ~seed
  in
  let horizon = Time.of_float_s ((float_of_int ops /. rate_per_s) +. 5.) in
  Cloud.run cloud ~until:horizon;
  let stats = get () in
  let metrics = Cloud.metrics_snapshot cloud in
  let per_op count =
    if stats.Sw_apps.Nfs.completed = 0 then 0.
    else float_of_int count /. float_of_int stats.Sw_apps.Nfs.completed
  in
  (* Per-pair packet counts (Fig. 6(b)) come off the snapshot, the same
     value the runner later merges into the bench report. *)
  let c2s =
    Sw_obs.Snapshot.counter metrics
      (Sw_net.Network.pair_metric
         ~src:(Stopwatch.Host.address client)
         ~dst:(Cloud.vm_address d))
  in
  let s2c =
    Sw_obs.Snapshot.counter metrics
      (Sw_net.Network.pair_metric ~src:(Cloud.vm_address d)
         ~dst:(Stopwatch.Host.address client))
  in
  let l = stats.Sw_apps.Nfs.latencies_ms in
  let mean_latency_ms =
    if Array.length l = 0 then nan
    else Array.fold_left ( +. ) 0. l /. float_of_int (Array.length l)
  in
  {
    mean_latency_ms;
    completed = stats.Sw_apps.Nfs.completed;
    issued = stats.Sw_apps.Nfs.issued;
    client_to_server_per_op = per_op c2s;
    server_to_client_per_op = per_op s2c;
    divergences =
      Sw_obs.Snapshot.counter metrics
        (Printf.sprintf "vm%d.divergences" (Cloud.vm_id d));
    metrics;
  }

let job ~baseline ~rate_per_s ~ops =
  let key =
    Printf.sprintf "fig6/%s/rate%g/ops%d"
      (if baseline then "base" else "sw")
      rate_per_s ops
  in
  (key, fun () -> run ~baseline ~rate_per_s ~ops)
