(* End-to-end integration tests of the StopWatch cloud: replica lockstep,
   egress/ingress behaviour under real guests, reproducibility, the
   Fig. 2 protocol invariants, divergence-freedom of the default
   configuration, and the placement-driven multi-VM deployment. *)

module Time = Sw_sim.Time
module Cloud = Stopwatch.Cloud
module Host = Stopwatch.Host
module App = Sw_vm.App
module Packet = Sw_net.Packet
module Msg = Sw_net.Msg

(* Probe datagrams: clients ping, echo guests answer. *)
let ping n = Packet.App (Msg.Probe_ping n)
let pong n = Packet.App (Msg.Probe_echo n)

let echo_app : App.factory =
  App.stateful ~init:0 ~handle:(fun count ~virt_now:_ ev ->
      match ev with
      | App.Packet_in pkt -> (
          match pkt.Packet.payload with
          | Packet.App (Msg.Probe_ping n) ->
              ( count + 1,
                [
                  App.Compute 10_000;
                  App.Send { dst = pkt.Packet.src; size = 100; payload = pong n };
                ] )
          | _ -> (count, []))
      | _ -> (count, []))

let ping_run ?(machines = 3) ?(pings = 20) ?(deploy = `Stopwatch) ?(seed = 1L) () =
  let cloud = Cloud.create ~seed ~machines () in
  let d =
    match deploy with
    | `Stopwatch -> Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:echo_app
    | `Baseline -> Cloud.deploy_baseline cloud ~on:0 ~app:echo_app
  in
  let client = Cloud.add_host cloud () in
  let pongs = ref [] in
  Host.set_handler client (fun pkt ->
      match pkt.Packet.payload with
      | Packet.App (Msg.Probe_echo n) -> pongs := (n, Host.now client) :: !pongs
      | _ -> ());
  for n = 1 to pings do
    Host.after client (Time.ms (50 * n)) (fun () ->
        Host.send client ~dst:(Cloud.vm_address d) ~size:100 (ping n))
  done;
  Cloud.run cloud ~until:(Time.s 3);
  (cloud, d, List.rev !pongs)

let test_all_pings_answered () =
  let _, d, pongs = ping_run () in
  Alcotest.(check (list int)) "all pongs, in order"
    (List.init 20 (fun i -> i + 1))
    (List.map fst pongs);
  Alcotest.(check int) "no divergences" 0 (Cloud.divergences d)

let test_replicas_in_lockstep () =
  let _, d, _ = ping_run () in
  let replicas = Cloud.replicas d in
  Alcotest.(check int) "three replicas" 3 (List.length replicas);
  let virt r = Sw_vm.Guest.virt_now (Sw_vmm.Vmm.guest r) in
  let sent r = Sw_vm.Guest.sent_packets (Sw_vmm.Vmm.guest r) in
  let deliveries r = Sw_vmm.Vmm.net_deliveries r in
  match replicas with
  | first :: rest ->
      List.iter
        (fun r ->
          Alcotest.(check int) "identical virtual time" (virt first) (virt r);
          Alcotest.(check int) "identical output count" (sent first) (sent r);
          Alcotest.(check int) "identical deliveries" (deliveries first) (deliveries r))
        rest
  | [] -> Alcotest.fail "no replicas"

let test_replicas_observe_identical_interdeliveries () =
  let _, d, _ = ping_run () in
  match Cloud.replicas d with
  | a :: rest ->
      let ref_obs = Sw_vmm.Vmm.inter_delivery_virts_ms a in
      List.iter
        (fun r ->
          let obs = Sw_vmm.Vmm.inter_delivery_virts_ms r in
          if obs <> ref_obs then
            Alcotest.fail "replicas must see identical virtual inter-delivery times")
        rest
  | [] -> Alcotest.fail "no replicas"

let test_egress_exactly_once () =
  let cloud, d, pongs = ping_run () in
  Alcotest.(check int) "client got each pong once" 20 (List.length pongs);
  Alcotest.(check int) "egress forwarded exactly the pongs" 20
    (Sw_net.Egress.forwarded (Cloud.egress cloud));
  Alcotest.(check int) "ingress replicated each ping" 20
    (Sw_net.Ingress.replicated (Cloud.ingress cloud));
  ignore d

let test_reproducible_runs () =
  let _, _, a = ping_run ~seed:42L () in
  let _, _, b = ping_run ~seed:42L () in
  Alcotest.(check bool) "identical traces for identical seeds" true (a = b)

let test_seed_changes_timings () =
  let _, _, a = ping_run ~seed:1L () in
  let _, _, b = ping_run ~seed:2L () in
  (* Same logical results... *)
  Alcotest.(check (list int)) "same pongs" (List.map fst a) (List.map fst b);
  (* ...but jitter differs somewhere. *)
  Alcotest.(check bool) "different micro-timings" true
    (List.map snd a <> List.map snd b)

let test_stopwatch_slower_than_baseline () =
  let rtt pongs =
    List.mapi (fun i (_, at) -> Time.to_float_ms at -. float_of_int (50 * (i + 1))) pongs
  in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let _, _, sw = ping_run ~deploy:`Stopwatch () in
  let _, _, bl = ping_run ~deploy:`Baseline () in
  let sw_rtt = mean (rtt sw) and bl_rtt = mean (rtt bl) in
  if sw_rtt <= bl_rtt then
    Alcotest.failf "StopWatch rtt (%.2f) must exceed baseline (%.2f)" sw_rtt bl_rtt;
  (* The gap is delta_n-scale: between 1x and 5x here. *)
  if sw_rtt /. bl_rtt > 8. then
    Alcotest.failf "implausible overhead %.1fx" (sw_rtt /. bl_rtt)

let test_background_noise_keeps_determinism () =
  let run () =
    let cloud = Cloud.create ~seed:7L ~machines:3 () in
    let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:echo_app in
    Cloud.start_background cloud ~rate_per_s:100. ();
    let client = Cloud.add_host cloud () in
    let pongs = ref 0 in
    Host.set_handler client (fun pkt ->
        match pkt.Packet.payload with
        | Packet.App (Msg.Probe_echo _) -> incr pongs
        | _ -> ());
    for n = 1 to 10 do
      Host.after client (Time.ms (40 * n)) (fun () ->
          Host.send client ~dst:(Cloud.vm_address d) ~size:100 (ping n))
    done;
    Cloud.run cloud ~until:(Time.s 2);
    let virt r = Sw_vm.Guest.virt_now (Sw_vmm.Vmm.guest r) in
    (!pongs, List.map virt (Cloud.replicas d), Cloud.divergences d)
  in
  let pongs, virts, div = run () in
  Alcotest.(check int) "pongs under noise" 10 pongs;
  Alcotest.(check int) "no divergences" 0 div;
  match virts with
  | v :: rest -> List.iter (fun v' -> Alcotest.(check int) "lockstep" v v') rest
  | [] -> ()

let prop_lockstep_any_seed =
  QCheck.Test.make ~name:"replicas stay in lockstep for any seed" ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cloud = Cloud.create ~seed:(Int64.of_int seed) ~machines:3 () in
      let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:echo_app in
      let client = Cloud.add_host cloud () in
      for n = 1 to 5 do
        Host.after client (Time.ms (30 * n)) (fun () ->
            Host.send client ~dst:(Cloud.vm_address d) ~size:100 (ping n))
      done;
      Cloud.run cloud ~until:(Time.ms 600);
      match Cloud.replicas d with
      | first :: rest ->
          let virt r = Sw_vm.Guest.virt_now (Sw_vmm.Vmm.guest r) in
          let obs r = Sw_vmm.Vmm.inter_delivery_virts_ms r in
          List.for_all
            (fun r -> Time.equal (virt first) (virt r) && obs first = obs r)
            rest
          && Cloud.divergences d = 0
      | [] -> false)

let test_deploy_validation () =
  let cloud = Cloud.create ~machines:3 () in
  Alcotest.check_raises "wrong replica count" (Invalid_argument "x") (fun () ->
      try ignore (Cloud.deploy cloud ~on:[ 0; 1 ] ~app:echo_app) with
      | Invalid_argument _ -> raise (Invalid_argument "x"));
  Alcotest.check_raises "duplicate machines" (Invalid_argument "x") (fun () ->
      try ignore (Cloud.deploy cloud ~on:[ 0; 0; 1 ] ~app:echo_app) with
      | Invalid_argument _ -> raise (Invalid_argument "x"));
  Alcotest.check_raises "machine out of range" (Invalid_argument "x") (fun () ->
      try ignore (Cloud.deploy cloud ~on:[ 0; 1; 7 ] ~app:echo_app) with
      | Invalid_argument _ -> raise (Invalid_argument "x"))

let test_deploy_plan () =
  let cloud = Cloud.create ~machines:9 () in
  match Sw_placement.Placement.theorem2_place ~n:9 ~c:3 ~k:9 with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      let deployments = Cloud.deploy_plan cloud ~plan ~app:echo_app in
      Alcotest.(check int) "nine VMs deployed" 9 (List.length deployments);
      let client = Cloud.add_host cloud () in
      let pongs = ref 0 in
      Host.set_handler client (fun pkt ->
          match pkt.Packet.payload with
          | Packet.App (Msg.Probe_echo _) -> incr pongs
          | _ -> ());
      List.iteri
        (fun i d ->
          Host.after client (Time.ms (10 * (i + 1))) (fun () ->
              Host.send client ~dst:(Cloud.vm_address d) ~size:100 (ping i)))
        deployments;
      Cloud.run cloud ~until:(Time.s 2);
      Alcotest.(check int) "every VM answered" 9 !pongs

let test_five_replicas_end_to_end () =
  let config = { Sw_vmm.Config.default with Sw_vmm.Config.replicas = 5 } in
  let cloud = Cloud.create ~config ~machines:5 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2; 3; 4 ] ~app:echo_app in
  let client = Cloud.add_host cloud () in
  let pongs = ref 0 in
  Host.set_handler client (fun pkt ->
      match pkt.Packet.payload with
      | Packet.App (Msg.Probe_echo _) -> incr pongs
      | _ -> ());
  for n = 1 to 5 do
    Host.after client (Time.ms (50 * n)) (fun () ->
        Host.send client ~dst:(Cloud.vm_address d) ~size:100 (ping n))
  done;
  Cloud.run cloud ~until:(Time.s 2);
  Alcotest.(check int) "pongs with 5 replicas" 5 !pongs;
  Alcotest.(check int) "exactly once" 5 (Sw_net.Egress.forwarded (Cloud.egress cloud))

let test_divergence_on_tiny_delta_n () =
  (* A delta_n far below the proposal round-trip forces synchrony
     violations, which must be detected and counted, while traffic still
     flows. *)
  let config = { Sw_vmm.Config.default with Sw_vmm.Config.delta_n = Time.us 100 } in
  let cloud = Cloud.create ~config ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:echo_app in
  let client = Cloud.add_host cloud () in
  let pongs = ref 0 in
  Host.set_handler client (fun pkt ->
      match pkt.Packet.payload with
      | Packet.App (Msg.Probe_echo _) -> incr pongs
      | _ -> ());
  for n = 1 to 10 do
    Host.after client (Time.ms (30 * n)) (fun () ->
        Host.send client ~dst:(Cloud.vm_address d) ~size:100 (ping n))
  done;
  Cloud.run cloud ~until:(Time.s 2);
  if Cloud.divergences d = 0 then
    Alcotest.fail "expected synchrony violations with a 100 us delta_n";
  Alcotest.(check int) "pings still delivered" 10 !pongs

let test_dma_end_to_end () =
  (* A guest chaining DMA transfers: completions arrive at virt + delta_d,
     identically across replicas, and the external report confirms it. *)
  let app : App.factory =
    App.stateful ~init:0 ~handle:(fun n ~virt_now ev ->
        match ev with
        | App.Boot -> (n, [ App.Dma_transfer { bytes = 1 lsl 20; tag = 0 } ])
        | App.Dma_done { tag } when tag < 4 ->
            (n + 1, [ App.Dma_transfer { bytes = 1 lsl 20; tag = tag + 1 } ])
        | App.Dma_done _ ->
            (* Report the completion count and the virtual time (ns) as two
               datagrams. *)
            ( n + 1,
              List.map
                (fun msg ->
                  App.Send
                    { dst = Sw_net.Address.Host 0; size = 64; payload = Packet.App msg })
                [ Msg.Stream_data (n + 1); Msg.Probe_echo virt_now ] )
        | _ -> (n, []))
  in
  let cloud = Cloud.create ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app in
  let collector = Cloud.add_host cloud () in
  let completions = ref None and virt_ms = ref None in
  Host.set_handler collector (fun pkt ->
      match pkt.Packet.payload with
      | Packet.App (Msg.Stream_data n) -> completions := Some n
      | Packet.App (Msg.Probe_echo ns) ->
          virt_ms := Some (Time.to_float_ms ns)
      | _ -> ());
  Cloud.run cloud ~until:(Time.s 2);
  (match (!completions, !virt_ms) with
  | Some 5, Some virt_ms ->
      (* Five chained transfers, each delivered at issue + delta_d (12 ms):
         the last completion lands near 60 ms of virtual time. *)
      if virt_ms < 59. || virt_ms > 75. then
        Alcotest.failf "unexpected completion virt %f ms" virt_ms
  | Some n, _ when n <> 5 -> Alcotest.failf "expected 5 completions, got %d" n
  | _ -> Alcotest.fail "no report received");
  (match Cloud.replicas d with
  | first :: rest ->
      List.iter
        (fun r ->
          Alcotest.(check int) "same dma interrupts"
            (Sw_vmm.Vmm.dma_interrupts first) (Sw_vmm.Vmm.dma_interrupts r))
        rest
  | [] -> ());
  Alcotest.(check int) "no divergences" 0 (Cloud.divergences d)

let test_lossy_fabric_pgm_recovery () =
  (* 5% loss on every cloud-internal link. The PGM channel (with heartbeats)
     must still deliver every inbound packet to every replica, in order, and
     keep the replicas in lockstep; proposals and epoch traffic recover the
     same way. Only the unprotected egress tunnels may drop pongs. *)
  let config =
    {
      Sw_vmm.Config.default with
      Sw_vmm.Config.mcast_heartbeat = Some (Time.ms 10);
    }
  in
  let lossy = { Sw_net.Network.lan with Sw_net.Network.loss = 0.05 } in
  let cloud = Cloud.create ~config ~default_link:lossy ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:echo_app in
  (* The client's access link stays clean so the measurement isn't about
     client-side drops. *)
  let client = Cloud.add_host cloud ~link:Sw_net.Network.wan () in
  let pongs = ref 0 in
  Host.set_handler client (fun pkt ->
      match pkt.Packet.payload with
      | Packet.App (Msg.Probe_echo _) -> incr pongs
      | _ -> ());
  let pings = 30 in
  for n = 1 to pings do
    Host.after client (Time.ms (40 * n)) (fun () ->
        Host.send client ~dst:(Cloud.vm_address d) ~size:100 (ping n))
  done;
  Cloud.run cloud ~until:(Time.s 4);
  (match Cloud.replicas d with
  | first :: rest ->
      Alcotest.(check int)
        "every ping delivered to every replica despite loss" pings
        (Sw_vmm.Vmm.net_deliveries first);
      List.iter
        (fun r ->
          Alcotest.(check int) "replica deliveries equal" pings
            (Sw_vmm.Vmm.net_deliveries r);
          Alcotest.(check int) "lockstep under loss"
            (Sw_vm.Guest.virt_now (Sw_vmm.Vmm.guest first))
            (Sw_vm.Guest.virt_now (Sw_vmm.Vmm.guest r)))
        rest
  | [] -> Alcotest.fail "no replicas");
  if !pongs < pings - 6 then
    Alcotest.failf "too many pongs lost through unprotected tunnels: %d/%d" !pongs
      pings

let test_epoch_resync_in_cloud () =
  let config =
    {
      Sw_vmm.Config.default with
      Sw_vmm.Config.slope_ns_per_branch = 1.1;
      epoch =
        Some
          {
            Sw_vmm.Config.interval_branches = 100_000_000;
            slope_l = 0.9;
            slope_u = 1.1;
          };
    }
  in
  let cloud = Cloud.create ~config ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:Sw_vm.App.idle in
  Cloud.run cloud ~until:(Time.s 2);
  let epochs = Sw_vmm.Replica_group.epochs_resolved (Cloud.group d) in
  if epochs < 10 then Alcotest.failf "expected many epochs, got %d" epochs;
  (* The drift must be bounded near 0.1 * I (10 ms) rather than the
     unsynchronised 10% of 2 s = 200 ms. *)
  let inst = List.hd (Cloud.replicas d) in
  let virt = Sw_vm.Guest.virt_now (Sw_vmm.Vmm.guest inst) in
  let drift = Float.abs (Time.to_float_ms (Time.sub virt (Cloud.engine cloud |> Sw_sim.Engine.now))) in
  if drift > 50. then Alcotest.failf "drift %f ms not contained" drift

let test_nondeterministic_app_caught_by_vote () =
  (* A buggy application that violates the determinism contract: its factory
     captures one shared counter, so the three replicas emit different
     payloads. The egress's output vote must flag it. *)
  let shared = ref 0 in
  let buggy : App.factory =
   fun () ->
    {
      App.handle =
        (fun ~virt_now:_ ev ->
          match ev with
          | App.Packet_in pkt ->
              incr shared;
              [
                App.Send
                  {
                    dst = pkt.Packet.src;
                    size = 100;
                    payload = Packet.App (Msg.Stream_data !shared);
                  };
              ]
          | _ -> []);
    }
  in
  let cloud = Cloud.create ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:buggy in
  let client = Cloud.add_host cloud () in
  Host.set_handler client (fun _ -> ());
  Host.send client ~dst:(Cloud.vm_address d) ~size:100 (ping 1);
  Cloud.run cloud ~until:(Time.ms 500);
  if Sw_net.Egress.mismatches (Cloud.egress cloud) = 0 then
    Alcotest.fail "output vote must catch a nondeterministic guest"

let test_heterogeneous_hardware () =
  (* Machines differ in speed by up to 1%: replicas skew in real time, the
     limiter repeatedly deschedules the fastest one (keeping the fastest two
     within the bound — the paper's rule; the third may lag), and the system
     still delivers everything deterministically and exactly once. *)
  let cloud = Cloud.create ~seed:9L ~rate_spread:0.01 ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:echo_app in
  let client = Cloud.add_host cloud () in
  let pongs = ref [] in
  Host.set_handler client (fun pkt ->
      match pkt.Packet.payload with
      | Packet.App (Msg.Probe_echo n) -> pongs := n :: !pongs
      | _ -> ());
  for n = 1 to 20 do
    Host.after client (Time.ms (50 * n)) (fun () ->
        Host.send client ~dst:(Cloud.vm_address d) ~size:100 (ping n))
  done;
  Cloud.run cloud ~until:(Time.s 3);
  Alcotest.(check (list int)) "all pongs in order"
    (List.init 20 (fun i -> i + 1))
    (List.rev !pongs);
  Alcotest.(check int) "exactly once" 20 (Sw_net.Egress.forwarded (Cloud.egress cloud));
  Alcotest.(check int) "no divergences" 0 (Cloud.divergences d);
  if Cloud.skew_blocks d = 0 then
    Alcotest.fail "the skew limiter should have fired on 1% speed spread";
  (* The paper's invariant: the two fastest replicas stay within the bound
     (up to one slice of overshoot); the third may lag. *)
  let virts =
    List.map (fun r -> Sw_vm.Guest.virt_now (Sw_vmm.Vmm.guest r)) (Cloud.replicas d)
  in
  (match List.sort (fun a b -> Time.compare b a) virts with
  | fastest :: second :: _ ->
      let gap = Time.to_float_ms (Time.sub fastest second) in
      if gap > 2.5 then Alcotest.failf "fastest-two gap %.2f ms exceeds the bound" gap
  | _ -> Alcotest.fail "missing replicas");
  (* Replicas deliver the same interrupts at the same virtual instants even
     though their branch counters differ in real time. *)
  match Cloud.replicas d with
  | a :: rest ->
      let obs r = Sw_vmm.Vmm.inter_delivery_virts_ms r in
      List.iter
        (fun r ->
          if obs r <> obs a then Alcotest.fail "virtual observations must agree")
        rest
  | [] -> ()

let test_clock_offsets_start_negotiation () =
  (* Machine clocks err by up to 2 ms; the replicas' shared virtual-clock
     start is the median reading and everything still works. *)
  let cloud = Cloud.create ~seed:11L ~clock_spread:(Time.ms 2) ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:echo_app in
  let client = Cloud.add_host cloud () in
  let pongs = ref 0 in
  Host.set_handler client (fun pkt ->
      match pkt.Packet.payload with
      | Packet.App (Msg.Probe_echo _) -> incr pongs
      | _ -> ());
  for n = 1 to 10 do
    Host.after client (Time.ms (40 * n)) (fun () ->
        Host.send client ~dst:(Cloud.vm_address d) ~size:100 (ping n))
  done;
  Cloud.run cloud ~until:(Time.s 1);
  Alcotest.(check int) "all pongs" 10 !pongs;
  Alcotest.(check int) "no divergences" 0 (Cloud.divergences d);
  match Cloud.replicas d with
  | a :: rest ->
      List.iter
        (fun r ->
          Alcotest.(check int) "identical virt despite clock error"
            (Sw_vm.Guest.virt_now (Sw_vmm.Vmm.guest a))
            (Sw_vm.Guest.virt_now (Sw_vmm.Vmm.guest r)))
        rest
  | [] -> ()

let test_replay_recovery () =
  (* Run traffic, rebuild one replica from its log mid-run, swap it in, and
     keep going: the recovered replica must match the others exactly. *)
  let config = { Sw_vmm.Config.default with Sw_vmm.Config.replay_log = true } in
  let cloud = Cloud.create ~config ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:echo_app in
  let client = Cloud.add_host cloud () in
  let pongs = ref 0 in
  Host.set_handler client (fun pkt ->
      match pkt.Packet.payload with
      | Packet.App (Msg.Probe_echo _) -> incr pongs
      | _ -> ());
  for n = 1 to 20 do
    Host.after client (Time.ms (40 * n)) (fun () ->
        Host.send client ~dst:(Cloud.vm_address d) ~size:100 (ping n))
  done;
  (* First half of the run. *)
  Cloud.run cloud ~until:(Time.ms 450);
  let victim_replica = List.nth (Cloud.replicas d) 1 in
  let live = Sw_vmm.Vmm.guest victim_replica in
  let clone = Sw_vmm.Vmm.rebuild victim_replica in
  Alcotest.(check int) "clone branch counter" (Sw_vm.Guest.instr live)
    (Sw_vm.Guest.instr clone);
  Alcotest.(check int) "clone virtual clock" (Sw_vm.Guest.virt_now live)
    (Sw_vm.Guest.virt_now clone);
  Alcotest.(check int) "clone packet numbering" (Sw_vm.Guest.sent_packets live)
    (Sw_vm.Guest.sent_packets clone);
  (* Install the clone and finish the run on it. *)
  Sw_vmm.Vmm.recover victim_replica;
  Cloud.run cloud ~until:(Time.s 2);
  Alcotest.(check int) "all pongs (recovered replica kept up)" 20 !pongs;
  Alcotest.(check int) "no output-vote mismatches" 0
    (Sw_net.Egress.mismatches (Cloud.egress cloud));
  match Cloud.replicas d with
  | a :: rest ->
      List.iter
        (fun r ->
          Alcotest.(check int) "lockstep after recovery"
            (Sw_vm.Guest.virt_now (Sw_vmm.Vmm.guest a))
            (Sw_vm.Guest.virt_now (Sw_vmm.Vmm.guest r)))
        rest
  | [] -> ()

(* A pseudo-random application: every instance derives the same action
   stream from a deterministic per-event hash, so replicas agree while the
   behaviour exercises arbitrary interleavings of compute, sends, disk, DMA
   and timers. *)
let random_app ~app_seed : App.factory =
  App.stateful ~init:(app_seed, 0) ~handle:(fun (state, events) ~virt_now:_ ev ->
      let state = (state * 1103515245) + 12345 in
      let pick = abs (state / 65536) mod 100 in
      let actions =
        match ev with
        | App.Packet_in pkt ->
            if pick < 30 then
              [
                App.Compute (1000 + (pick * 997));
                App.Send
                  { dst = pkt.Packet.src; size = 80 + pick; payload = pong events };
              ]
            else if pick < 50 then
              [ App.Disk_read { bytes = 512 + (pick * 64); sequential = pick mod 2 = 0; tag = events } ]
            else if pick < 60 then [ App.Dma_transfer { bytes = 4096; tag = events } ]
            else if pick < 80 then
              [ App.Set_timer { after = Time.us (100 * (pick + 1)); tag = events } ]
            else [ App.Compute (5000 * pick) ]
        | App.Disk_done _ | App.Dma_done _ ->
            [
              App.Compute 2000;
              App.Send
                { dst = Sw_net.Address.Host 0; size = 64; payload = pong events };
            ]
        | App.Timer _ -> [ App.Compute 12_345 ]
        | App.Boot | App.Tick -> []
      in
      ((state, events + 1), actions))

let prop_random_apps_stay_in_lockstep =
  QCheck.Test.make ~name:"random applications keep replicas in lockstep" ~count:12
    QCheck.(pair (int_bound 1_000_000) (int_range 5 25))
    (fun (app_seed, pings) ->
      let cloud = Cloud.create ~seed:(Int64.of_int (app_seed + 13)) ~machines:3 () in
      let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:(random_app ~app_seed) in
      let client = Cloud.add_host cloud () in
      Host.set_handler client (fun _ -> ());
      for n = 1 to pings do
        Host.after client (Time.ms (17 * n)) (fun () ->
            Host.send client ~dst:(Cloud.vm_address d) ~size:100 (ping n))
      done;
      Cloud.run cloud ~until:(Time.ms (17 * pings) |> Time.add (Time.ms 400));
      Sw_net.Egress.mismatches (Cloud.egress cloud) = 0
      && Cloud.divergences d = 0
      &&
      match Cloud.replicas d with
      | a :: rest ->
          List.for_all
            (fun r ->
              Time.equal
                (Sw_vm.Guest.virt_now (Sw_vmm.Vmm.guest a))
                (Sw_vm.Guest.virt_now (Sw_vmm.Vmm.guest r))
              && Sw_vm.Guest.sent_packets (Sw_vmm.Vmm.guest a)
                 = Sw_vm.Guest.sent_packets (Sw_vmm.Vmm.guest r))
            rest
      | [] -> false)

let () =
  Alcotest.run "integration"
    [
      ( "stopwatch-cloud",
        [
          Alcotest.test_case "all pings answered" `Quick test_all_pings_answered;
          Alcotest.test_case "replica lockstep" `Quick test_replicas_in_lockstep;
          Alcotest.test_case "identical observations" `Quick
            test_replicas_observe_identical_interdeliveries;
          Alcotest.test_case "egress exactly once" `Quick test_egress_exactly_once;
          Alcotest.test_case "reproducible" `Quick test_reproducible_runs;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_timings;
          Alcotest.test_case "overhead direction" `Quick
            test_stopwatch_slower_than_baseline;
          Alcotest.test_case "background noise" `Quick
            test_background_noise_keeps_determinism;
          QCheck_alcotest.to_alcotest prop_lockstep_any_seed;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "validation" `Quick test_deploy_validation;
          Alcotest.test_case "placement plan" `Quick test_deploy_plan;
          Alcotest.test_case "five replicas" `Quick test_five_replicas_end_to_end;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "divergence detection" `Quick
            test_divergence_on_tiny_delta_n;
          Alcotest.test_case "pgm recovery under fabric loss" `Quick
            test_lossy_fabric_pgm_recovery;
          Alcotest.test_case "dma end-to-end" `Quick test_dma_end_to_end;
          Alcotest.test_case "heterogeneous hardware" `Quick
            test_heterogeneous_hardware;
          Alcotest.test_case "clock offsets & start negotiation" `Quick
            test_clock_offsets_start_negotiation;
          Alcotest.test_case "output vote catches nondeterminism" `Quick
            test_nondeterministic_app_caught_by_vote;
          Alcotest.test_case "replay-based recovery" `Quick test_replay_recovery;
          QCheck_alcotest.to_alcotest prop_random_apps_stay_in_lockstep;
          Alcotest.test_case "epoch resync" `Quick test_epoch_resync_in_cloud;
        ] );
    ]
