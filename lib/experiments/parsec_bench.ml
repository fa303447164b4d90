module Time = Sw_sim.Time
module Cloud = Stopwatch.Cloud

type outcome = {
  runtime_ms : float;
  disk_interrupts : int;
  delta_d_violations : int;
  divergences : int;
  metrics : Sw_obs.Snapshot.t;
}

(* Fig. 7 runs delta_d at the low end of the paper's 8-15 ms range: their
   disk's maximum observed access time was small for these workloads'
   mostly-small requests. *)
let parsec_config = { Sw_vmm.Config.default with Sw_vmm.Config.delta_d = Time.ms 8 }

let seed = 0x9A25ECL

let run ?(config = parsec_config) ~baseline profile =
  let cloud = Cloud.create ~config ~seed ~machines:3 () in
  let collector = Cloud.add_host cloud () in
  let done_at = ref nan in
  Stopwatch.Host.set_handler collector (fun pkt ->
      match pkt.Sw_net.Packet.payload with
      | Sw_net.Packet.App (Sw_net.Msg.Job_done _) ->
          if Float.is_nan !done_at then
            done_at := Time.to_float_ms (Stopwatch.Host.now collector)
      | _ -> ());
  let app =
    Sw_apps.Parsec.app profile ~collector:(Stopwatch.Host.address collector)
  in
  let d =
    if baseline then Cloud.deploy_baseline cloud ~on:0 ~app
    else Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app
  in
  (* Stop soon after the job reports completion instead of simulating a
     fixed horizon of idle spinning. *)
  let rec advance elapsed_ms =
    if Float.is_nan !done_at && elapsed_ms < 120_000 then begin
      Cloud.run_span cloud (Time.ms 250);
      advance (elapsed_ms + 250)
    end
  in
  advance 0;
  let inst = List.hd (Cloud.replicas d) in
  let metrics = Cloud.metrics_snapshot cloud in
  let prefix = Sw_vmm.Vmm.metric_prefix inst in
  {
    runtime_ms = !done_at;
    disk_interrupts =
      Sw_obs.Snapshot.counter metrics (prefix ^ ".disk_interrupts");
    delta_d_violations =
      Sw_obs.Snapshot.counter metrics (prefix ^ ".delta_d_violations");
    divergences =
      Sw_obs.Snapshot.counter metrics
        (Printf.sprintf "vm%d.divergences" (Cloud.vm_id d));
    metrics;
  }

let job ~baseline profile =
  let key =
    Printf.sprintf "fig7/%s/%s"
      (if baseline then "base" else "sw")
      profile.Sw_apps.Parsec.name
  in
  (key, fun () -> run ~baseline profile)
