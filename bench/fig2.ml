(* Fig. 2: the packet-delivery protocol, reproduced as an execution trace of
   one inbound packet: arrival at each VMM, the three proposals, the median
   selection, and the delivery to the guest replicas.

   This figure doubles as the demo of the typed trace: the VMMs emit
   structured [Sw_obs.Event.t] values, and the consumer pattern-matches to
   keep only the protocol steps — no string parsing. *)

module Time = Sw_sim.Time
module Cloud = Stopwatch.Cloud
module Trace = Sw_obs.Trace
module Event = Sw_obs.Event

let run () =
  Sw_experiments.Tables.section
    "Fig. 2 — delivering one packet to guest VM replicas (protocol trace)";
  let cloud = Cloud.create ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:(Sw_apps.Probe.receiver ()) in
  let trace = Trace.create () in
  (* Cloud-wide attachment: the ingress and egress edge nodes emit too, so
     the printed trace starts at the replication fan-out. *)
  Cloud.attach_trace cloud trace;
  let client = Cloud.add_host cloud () in
  Stopwatch.Host.after client (Time.ms 100) (fun () ->
      Stopwatch.Host.send client ~dst:(Cloud.vm_address d) ~size:100
        (Sw_net.Packet.App (Sw_net.Msg.Probe_ping 1)));
  let now () = Sw_sim.Engine.now (Cloud.engine cloud) in
  Trace.span trace ~now ~name:"fig2.simulation" (fun () ->
      Cloud.run cloud ~until:(Time.ms 400));
  (* Keep the protocol steps (proposals, median adoption, delivery) and the
     surrounding span; drop device interrupts, faults and degradation events.
     Each kept step is also a report row. *)
  let steps = ref [] in
  Trace.iter trace (fun entry ->
      match entry.Trace.event with
      | Event.Packet_proposed _ | Event.Median_adopted _
      | Event.Packet_delivered _ | Event.Ingress_replicated _
      | Event.Egress_released _ | Event.Divergence _ | Event.Span_begin _
      | Event.Span_end _ ->
          Format.printf "%a@." Trace.pp_entry entry;
          steps :=
            Sw_runner.Report.Obj
              [
                ("at_ns", Sw_runner.Report.Int entry.Trace.at_ns);
                ("kind", Sw_runner.Report.String (Event.label entry.Trace.event));
                ( "text",
                  Sw_runner.Report.String
                    (Format.asprintf "%a" Event.pp entry.Trace.event) );
              ]
            :: !steps
      | Event.Vm_exit _ | Event.Disk_irq _ | Event.Dma_irq _
      | Event.Fault_injected _ | Event.Fault_cleared _
      | Event.Fault_replica_crash _ | Event.Fault_replica_restart _
      | Event.Degrade_suspected _ | Event.Degrade_ejected _
      | Event.Degrade_reintegrated _ ->
          ());
  Bench_report.add "fig2" (Sw_runner.Report.List (List.rev !steps))
