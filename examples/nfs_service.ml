(* An NFS-like service under load (the paper's Fig. 6 scenario): five client
   processes issue a realistic operation mix against a cloud-resident file
   server; we report the per-operation latency distribution under StopWatch
   and under unmodified Xen.

   Run with: dune exec examples/nfs_service.exe *)

module Time = Sw_sim.Time
module Cloud = Stopwatch.Cloud

let run ~stopwatch =
  let config = Sw_experiments.Nfs_bench.nfs_config in
  let cloud = Cloud.create ~config ~machines:3 () in
  let d =
    if stopwatch then Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:(Sw_apps.Nfs.server)
    else Cloud.deploy_baseline cloud ~on:0 ~app:(Sw_apps.Nfs.server)
  in
  let client = Cloud.add_host cloud () in
  let tcp = Sw_apps.Tcp_host.attach client ~config:Sw_apps.Nfs.client_tcp_config () in
  let get =
    Sw_apps.Nfs.run_client tcp ~dst:(Cloud.vm_address d) ~rate_per_s:100. ~procs:5
      ~ops:500 ~seed:0x4E_F5L
  in
  Cloud.run cloud ~until:(Time.s 10);
  (get ()).Sw_apps.Nfs.latencies_ms

let describe label latencies =
  let n = Array.length latencies in
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  let mean = Array.fold_left ( +. ) 0. latencies /. float_of_int n in
  Printf.printf "%-22s ops=%4d  mean %6.2f ms  p50 %6.2f  p95 %6.2f  p99 %6.2f\n"
    label n mean
    sorted.(n / 2)
    sorted.(n * 95 / 100)
    sorted.(n * 99 / 100)

let () =
  print_endline
    "NFS-like service, 100 ops/s over 5 client processes\n\
     (mix: 32% read, 24% lookup, 12% write, 12% create, 11% setattr, 8% getattr)\n";
  describe "unmodified Xen" (run ~stopwatch:false);
  describe "StopWatch" (run ~stopwatch:true);
  print_endline
    "\nReads that miss the server's buffer cache pay delta_d on top of the\n\
     disk; every inbound RPC pays delta_n for median agreement. The paper\n\
     measures the same <= 2.7x latency cost."
