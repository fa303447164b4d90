(* Quickstart: bring up a 3-machine StopWatch cloud, deploy one replicated
   guest VM running a tiny echo service, ping it from an external client, and
   compare the round-trip time with an unreplicated VM on unmodified Xen.

   Run with: dune exec examples/quickstart.exe *)

module Time = Sw_sim.Time
module Cloud = Stopwatch.Cloud
module Host = Stopwatch.Host
module App = Sw_vm.App
module Packet = Sw_net.Packet
module Msg = Sw_net.Msg

(* A guest application is a deterministic state machine: events in, actions
   out. This one echoes every ping after a little compute. Packet payloads
   are one closed type: a datagram carries an application message
   ([Packet.App]) from [Sw_net.Msg.t], here the probe ping and echo. *)
let echo : App.factory =
  App.stateful ~init:() ~handle:(fun () ~virt_now:_ event ->
      match event with
      | App.Packet_in { Packet.payload = Packet.App (Msg.Probe_ping n); src; _ } ->
          ( (),
            [
              App.Compute 50_000 (* ~50 us of guest work *);
              App.Send
                { dst = src; size = 100; payload = Packet.App (Msg.Probe_echo n) };
            ] )
      | _ -> ((), []))

let measure_rtts ~label ~deploy =
  let cloud = Cloud.create ~machines:3 () in
  let vm = deploy cloud in
  let client = Cloud.add_host cloud () in
  let rtts = ref [] in
  let sent_at = Hashtbl.create 16 in
  Host.set_handler client (fun pkt ->
      match pkt.Packet.payload with
      | Packet.App (Msg.Probe_echo n) ->
          let t0 = Hashtbl.find sent_at n in
          rtts := Time.to_float_ms (Time.sub (Host.now client) t0) :: !rtts
      | _ -> ());
  for n = 1 to 10 do
    Host.after client (Time.ms (100 * n)) (fun () ->
        Hashtbl.replace sent_at n (Host.now client);
        Host.send client ~dst:(Cloud.vm_address vm) ~size:100
          (Packet.App (Msg.Probe_ping n)))
  done;
  Cloud.run cloud ~until:(Time.s 2);
  let n = List.length !rtts in
  let mean = List.fold_left ( +. ) 0. !rtts /. float_of_int n in
  Printf.printf "%-32s %d/10 pongs, mean RTT %5.2f ms (divergences: %d)\n" label n
    mean (Cloud.divergences vm);
  mean

let () =
  print_endline "StopWatch quickstart: echo service, replicated vs baseline\n";
  let sw =
    measure_rtts ~label:"StopWatch (3 replicas, median)" ~deploy:(fun cloud ->
        Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:echo)
  in
  let bl =
    measure_rtts ~label:"Unmodified Xen (baseline)" ~deploy:(fun cloud ->
        Cloud.deploy_baseline cloud ~on:0 ~app:echo)
  in
  Printf.printf
    "\nStopWatch pays ~%.1fx in latency; in exchange, a coresident attacker's\n\
     timing observations are blunted by the median of three replicas\n\
     (see examples/timing_attack.exe).\n"
    (sw /. bl)
