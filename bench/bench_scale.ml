(* Simulator scalability: a 33-machine cloud filled by the Theorem 2
   construction, everyone echoing pings. Reports simulated-vs-wall time and
   engine throughput — a performance-regression canary for the simulator
   itself. *)

open Sw_experiments
module Time = Sw_sim.Time
module Cloud = Stopwatch.Cloud
module Host = Stopwatch.Host

let run () =
  Tables.section "Scale: 33 machines, Theorem 2 placement, echo traffic";
  Tables.header ~width:12 [ "VMs"; "sim s"; "wall s"; "events"; "ev/s"; "pings" ];
  List.iter
    (fun vms ->
      let plan =
        match Sw_placement.Placement.theorem2_place ~n:33 ~c:6 ~k:vms with
        | Ok plan -> plan
        | Error e -> failwith e
      in
      let cloud = Cloud.create ~machines:33 () in
      let deployments = Cloud.deploy_plan cloud ~plan ~app:(Sw_apps.Probe.receiver ()) in
      let client = Cloud.add_host cloud () in
      Host.set_handler client (fun _ -> ());
      let pings_sent = ref 0 in
      List.iter
        (fun d ->
          let rec ping n =
            if n <= 40 then
              Host.after client (Time.ms 25) (fun () ->
                  incr pings_sent;
                  Host.send client ~dst:(Cloud.vm_address d) ~size:100
                    (Sw_net.Packet.App (Sw_net.Msg.Probe_ping n));
                  ping (n + 1))
          in
          ping 1)
        deployments;
      (* Wall clock, not Sys.time: CPU time overcounts under Domains. *)
      let t0 = Sw_obs.Profile.now_ns () in
      Cloud.run cloud ~until:(Time.s 2);
      let wall = float_of_int (Sw_obs.Profile.now_ns () - t0) /. 1e9 in
      let events = Sw_sim.Engine.fired (Cloud.engine cloud) in
      Tables.row ~width:12
        [
          string_of_int vms;
          "2.0";
          Tables.f2 wall;
          string_of_int events;
          Tables.f0 (float_of_int events /. wall);
          string_of_int !pings_sent;
        ])
    [ 11; 33; 66 ]
