(* sw_fault: schedule determinism, the crash -> eject -> restart ->
   reintegrate lifecycle, the watchdog's events in a cloud-wide trace,
   egress vote-table boundedness under sustained tunnel loss, and bounded
   multicast NAK recovery. *)

module Time = Sw_sim.Time
module Prng = Sw_sim.Prng
module Fault = Sw_fault.Fault
module Schedule = Sw_fault.Schedule
module Cloud = Stopwatch.Cloud
module Host = Stopwatch.Host
module Event = Sw_obs.Event
module Snapshot = Sw_obs.Snapshot
module Export = Sw_obs.Export

(* The degradation machinery used by every cloud test in this file. *)
let chaos_config =
  {
    Sw_vmm.Config.default with
    Sw_vmm.Config.replay_log = true;
    vmm_heartbeat = Some (Time.ms 5);
    watchdog =
      Some
        { Sw_vmm.Config.timeout = Time.ms 25; period = Time.ms 10; retries = 2 };
    egress_vote_expiry = Some (Time.ms 500);
  }

let make_fault ~machines ~replicas rng =
  match Prng.int rng 8 with
  | 0 | 1 -> Fault.Link_loss { target = None; p = 0.05 +. (0.3 *. Prng.float rng) }
  | 2 ->
      Fault.Link_latency
        { target = None; extra = Time.us (100 + Prng.int rng 900) }
  | 3 -> Fault.ingress_drop ~p:(0.2 +. (0.5 *. Prng.float rng))
  | 4 -> Fault.egress_drop ~p:(0.2 +. (0.5 *. Prng.float rng))
  | 5 -> Fault.Dom0_pause { machine = Prng.int rng machines }
  | 6 ->
      Fault.Machine_slowdown
        { machine = Prng.int rng machines; factor = 1.05 +. (0.4 *. Prng.float rng) }
  | _ -> Fault.Mcast_partition { vm = 0; replica = Prng.int rng replicas }

let windows ~seed =
  Schedule.windows ~seed ~until:(Time.s 2) ~mean_gap:(Time.ms 100)
    ~mean_span:(Time.ms 20)
    ~make:(make_fault ~machines:3 ~replicas:3)

(* --- Schedule determinism ------------------------------------------------- *)

let prop_windows_deterministic =
  QCheck.Test.make ~count:50 ~name:"Schedule.windows is a function of its seed"
    QCheck.int64 (fun seed ->
      let a = windows ~seed and b = windows ~seed in
      a = b)

let test_windows_seed_sensitivity () =
  Alcotest.(check bool)
    "different seeds give different schedules" false
    (windows ~seed:1L = windows ~seed:2L);
  Alcotest.(check bool)
    "schedules are non-trivial" true
    (List.length (windows ~seed:1L) > 3)

let test_sorted_stable () =
  let specs = windows ~seed:7L in
  let shuffled =
    let arr = Array.of_list specs in
    let rng = Prng.create 99L in
    (* Fisher-Yates. *)
    for i = Array.length arr - 1 downto 1 do
      let j = Prng.int rng (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    Array.to_list arr
  in
  Alcotest.(check bool)
    "install order independent of build order" true
    (Schedule.sorted specs = Schedule.sorted shuffled)

(* Rendered targets order the schedule and name the fault events, so their
   bytes stay fixed whatever type carries the target. *)
let test_target_strings () =
  Alcotest.(check (list string))
    "link targets" [ "net:ingress"; "net:egress"; "net" ]
    (List.map Fault.target_string
       [
         Fault.ingress_drop ~p:0.1;
         Fault.egress_drop ~p:0.1;
         Fault.Link_latency { target = None; extra = Time.us 5 };
       ])

(* --- Deterministic runs under faults --------------------------------------- *)

let chaos_spec ~victim =
  let module Scenario = Sw_attack.Scenario in
  {
    Scenario.default with
    Scenario.config = chaos_config;
    duration = Time.s 2;
    victim;
    faults =
      Schedule.at (Time.ms 600)
        (Fault.Replica_crash
           { vm = 0; replica = 1; restart_after = Some (Time.ms 300) })
      :: windows ~seed:0xC4A05L;
  }

let scenario_snapshot spec = (Sw_attack.Scenario.run spec).Sw_attack.Scenario.metrics

let test_same_seed_same_bytes () =
  let spec = chaos_spec ~victim:true in
  let a = Export.to_json_string (scenario_snapshot spec) in
  let b = Export.to_json_string (scenario_snapshot spec) in
  Alcotest.(check bool)
    "chaos run produced fault activity" true
    (Metric.counter (scenario_snapshot spec) "fault.injected" > 0);
  Alcotest.(check string) "same (seed, schedule) => identical bytes" a b

let test_chaos_snapshot_bytes_j1_j4 () =
  let module Runner = Sw_runner.Runner in
  let module Pool = Sw_runner.Pool in
  let jobs () =
    List.map
      (fun (key, victim) ->
        (key, fun () -> scenario_snapshot (chaos_spec ~victim)))
      [ ("chaos/no-victim", false); ("chaos/victim", true) ]
  in
  let export outcomes =
    Export.to_json_string (Snapshot.merge_all (Runner.successes outcomes))
  in
  let seq = export (Runner.map (jobs ())) in
  let par =
    export (Pool.with_pool ~workers:4 (fun pool -> Runner.map ~pool (jobs ())))
  in
  Alcotest.(check bool)
    "snapshot non-trivial" false
    (String.equal seq (Export.to_json_string Snapshot.empty));
  Alcotest.(check string) "chaos merged snapshot bytes identical under -j 4" seq par

(* --- Crash -> eject -> restart -> reintegrate lifecycle -------------------- *)

let test_crash_lifecycle () =
  let cloud = Cloud.create ~config:chaos_config ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:(Sw_apps.Probe.receiver ()) in
  let trace = Sw_obs.Trace.create () in
  Cloud.attach_trace cloud trace;
  ignore
    (Cloud.install_faults cloud
       [
         Schedule.at (Time.ms 100)
           (Fault.Replica_crash
              { vm = 0; replica = 1; restart_after = Some (Time.ms 300) });
       ]);
  (* Steady inbound traffic so delivery progress is observable throughout. *)
  let client = Cloud.add_host cloud () in
  let n = ref 0 in
  let rec ping () =
    Host.after client (Time.ms 5) (fun () ->
        incr n;
        Host.send client ~dst:(Cloud.vm_address d) ~size:100
          (Sw_net.Packet.App (Sw_net.Msg.Probe_ping !n));
        ping ())
  in
  ping ();
  let group = Cloud.group d in
  let counter name = Metric.counter (Cloud.metrics_snapshot cloud) name in
  let vm_metric name = Printf.sprintf "vm%d.%s" (Cloud.vm_id d) name in
  let deliveries () =
    let i = List.hd (Cloud.replicas d) in
    counter (Sw_vmm.Vmm.metric_prefix i ^ ".net_deliveries")
  in
  (* Crash at 100 ms; the watchdog (timeout 25 ms, period 10 ms, retries 2)
     ejects well before 250 ms. *)
  Cloud.run cloud ~until:(Time.ms 250);
  Alcotest.(check int) "ejected once" 1 (counter (vm_metric "ejections"));
  Alcotest.(check int) "two members active" 2
    (Sw_vmm.Replica_group.active_count group);
  Alcotest.(check int) "degraded to quorum 1" 1
    (Sw_vmm.Replica_group.quorum group);
  let d1 = deliveries () in
  (* Still degraded (restart lands at 400 ms): the group must keep
     delivering rather than wedge on the dead member. *)
  Cloud.run cloud ~until:(Time.ms 380);
  let d2 = deliveries () in
  Alcotest.(check bool)
    (Printf.sprintf "keeps delivering while degraded (%d -> %d)" d1 d2)
    true (d2 > d1);
  (* Restart at 400 ms resyncs from a survivor and reinstates, closing the
     degraded window into its sum. *)
  Cloud.run cloud ~until:(Time.ms 600);
  Alcotest.(check bool) "time in degraded mode accounted" true
    (Metric.sum (Cloud.metrics_snapshot cloud) (vm_metric "degraded_ns") > 0.);
  Alcotest.(check int) "reintegrated once" 1 (counter (vm_metric "reintegrations"));
  Alcotest.(check int) "all members active again" 3
    (Sw_vmm.Replica_group.active_count group);
  Alcotest.(check int) "back to full quorum" 3 (Sw_vmm.Replica_group.quorum group);
  Alcotest.(check int) "one fault injected" 1 (counter "fault.injected");
  (* The ingress counts the live members as each replication's copies: all
     three before the ejection, two while degraded, three once the restarted
     replica is back. *)
  let copies ~from ~until =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (e : Sw_obs.Trace.entry) ->
           match e.Sw_obs.Trace.event with
           | Event.Ingress_replicated { copies; _ }
             when e.at_ns >= from && e.at_ns < until ->
               Some copies
           | _ -> None)
         (Sw_obs.Trace.entries trace))
  in
  Alcotest.(check int) "trace kept every entry" 0 (Sw_obs.Trace.dropped trace);
  Alcotest.(check (list int)) "copies before the ejection" [ 3 ]
    (copies ~from:0 ~until:(Time.ms 100));
  Alcotest.(check (list int)) "copies while degraded" [ 2 ]
    (copies ~from:(Time.ms 250) ~until:(Time.ms 380));
  Alcotest.(check (list int)) "copies after reintegration" [ 3 ]
    (copies ~from:(Time.ms 410) ~until:(Time.ms 600));
  (* The typed event sequence tells the whole story, in causal order. *)
  let labels =
    List.filter_map
      (fun (e : Sw_obs.Trace.entry) ->
        match e.Sw_obs.Trace.event with
        | Event.Fault_replica_crash _ -> Some "crash"
        | Event.Degrade_suspected _ -> Some "suspect"
        | Event.Degrade_ejected _ -> Some "eject"
        | Event.Fault_replica_restart _ -> Some "restart"
        | Event.Degrade_reintegrated _ -> Some "reintegrate"
        | _ -> None)
      (Sw_obs.Trace.entries trace)
  in
  let rec subsequence needle hay =
    match (needle, hay) with
    | [], _ -> true
    | _, [] -> false
    | n :: ns, h :: hs when n = h -> subsequence ns hs
    | ns, _ :: hs -> subsequence ns hs
  in
  Alcotest.(check bool)
    (Printf.sprintf "lifecycle events in order (got: %s)"
       (String.concat " " labels))
    true
    (subsequence [ "crash"; "suspect"; "eject"; "restart"; "reintegrate" ] labels)

(* The watchdog emits through the engine like every other component, so a
   sink attached to the cloud (here after the deployment exists) records the
   suspicion and the ejection of a crashed replica. *)
let test_watchdog_traced () =
  let cloud = Cloud.create ~config:chaos_config ~machines:3 () in
  ignore (Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:(Sw_apps.Probe.receiver ()));
  let trace = Sw_obs.Trace.create () in
  Cloud.attach_trace cloud trace;
  ignore
    (Cloud.install_faults cloud
       [
         Schedule.at (Time.ms 100)
           (Fault.Replica_crash { vm = 0; replica = 2; restart_after = None });
       ]);
  Cloud.run cloud ~until:(Time.ms 250);
  let count p = List.length (List.filter p (Sw_obs.Trace.entries trace)) in
  let suspected =
    count (fun e ->
        match e.Sw_obs.Trace.event with
        | Event.Degrade_suspected { vm = 0; replica = 2; _ } -> true
        | _ -> false)
  and ejected =
    count (fun e ->
        match e.Sw_obs.Trace.event with
        | Event.Degrade_ejected { vm = 0; replica = 2; quorum = 1 } -> true
        | _ -> false)
  in
  Alcotest.(check bool)
    (Printf.sprintf "Degrade_suspected recorded (%d)" suspected)
    true (suspected > 0);
  Alcotest.(check int) "Degrade_ejected recorded once" 1 ejected

(* --- Egress boundedness under sustained tunnel loss ------------------------ *)

let test_egress_bounded_under_total_loss () =
  let config =
    { chaos_config with Sw_vmm.Config.watchdog = None; vmm_heartbeat = None }
  in
  let cloud = Cloud.create ~config ~machines:3 () in
  let sink = Cloud.add_host cloud () in
  let d =
    Cloud.deploy cloud ~on:[ 0; 1; 2 ]
      ~app:
        (Sw_apps.Probe.receiver ~echo_to:(Host.address sink) ())
  in
  (* Sustained heavy loss on every replica->egress tunnel from 50 ms to the
     end of the run: most packets land with fewer than 3 copies (many with
     exactly 1 — never releasing), so without expiry the vote table would
     grow for the whole run. *)
  ignore
    (Cloud.install_faults cloud
       [
         {
           Schedule.at = Time.ms 50;
           span = Time.s 10;
           fault = Fault.egress_drop ~p:0.7;
         };
       ]);
  let client = Cloud.add_host cloud () in
  let n = ref 0 in
  let rec ping () =
    Host.after client (Time.ms 2) (fun () ->
        incr n;
        Host.send client ~dst:(Cloud.vm_address d) ~size:100
          (Sw_net.Packet.App (Sw_net.Msg.Probe_ping !n));
        ping ())
  in
  ping ();
  Cloud.run cloud ~until:(Time.s 4);
  let snap = Cloud.metrics_snapshot cloud in
  let expired = Metric.counter snap "net.egress.expired_votes" in
  (* Every vote entry arms one expiry timer when its first copy arrives, and
     leaves the table either complete or expired. So the entries expiry has
     not reclaimed, [armed - expired], are the live ones plus the few that
     completed (all three copies through a 70 % drop: about 1 in 25).
     Bounded: only entries younger than the 500 ms expiry span can be live.
     At 500 pings/s that is at most ~250 entries; without expiry ~1750
     incomplete entries would have accumulated over the faulted 3.95 s.
     The counts see retirements, not the table: an expiry that counted an
     entry without removing it would pass. *)
  let unreclaimed =
    Metric.counter snap "sim.events.egress.expire.scheduled" - expired
  in
  Alcotest.(check bool)
    (Printf.sprintf "vote table bounded (unreclaimed=%d)" unreclaimed)
    true
    (unreclaimed <= 400);
  Alcotest.(check bool)
    (Printf.sprintf "expiry engaged (expired=%d)" expired)
    true (expired > 0);
  Alcotest.(check bool) "egress still forwarded traffic" true
    (Metric.counter snap "net.egress.forwarded" > 0)

(* --- Bounded NAK recovery -------------------------------------------------- *)

let test_nak_abandonment () =
  let engine = Sw_sim.Engine.create () in
  let network = Sw_net.Network.create engine ~default:Sw_net.Network.lan in
  let module Mc = Sw_net.Multicast in
  let module Addr = Sw_net.Address in
  let g = Mc.group network ~id:0 ~members:[ Addr.Vmm 0; Addr.Vmm 1 ] () in
  let transmit = Sw_net.Network.send network in
  let got = ref [] in
  let e0 =
    Mc.endpoint g ~self:(Addr.Vmm 0) ~transmit
      ~deliver:(fun pkt -> got := pkt.Sw_net.Packet.payload :: !got)
  in
  let e1 = Mc.endpoint g ~self:(Addr.Vmm 1) ~transmit ~deliver:(fun _ -> ()) in
  Sw_net.Network.register network (Addr.Vmm 0) (fun pkt -> Mc.handle e0 pkt);
  Sw_net.Network.register network (Addr.Vmm 1) (fun pkt -> Mc.handle e1 pkt);
  let send i = Mc.publish e1 ~size:64 (Sw_net.Packet.Background i) in
  send 0;
  Sw_sim.Engine.run engine ~until:(Time.ms 5);
  (* The receiver misses mseq 1 behind a partition window... *)
  Mc.set_partitioned e0 true;
  send 1;
  Sw_sim.Engine.run engine ~until:(Time.ms 10);
  (* ...heals, receives mseq 2 about 100 us later, and detects the gap... *)
  Mc.set_partitioned e0 false;
  send 2;
  Sw_sim.Engine.run engine ~until:(Time.us 10_200);
  (* ...then is cut off again, before its first NAK is due 300 us after the
     gap, for the whole NAK budget: its NAKs (and any retransmissions) are
     dropped, so after 5 unanswered attempts (0.3 to 4.8 ms apart, the gap
     given up at about 29 ms) it must abandon the gap and deliver the
     buffered mseq 2 instead of stalling forever. *)
  Mc.set_partitioned e0 true;
  Sw_sim.Engine.run engine ~until:(Time.ms 200);
  let counter name =
    Metric.counter
      (Sw_obs.Registry.snapshot (Sw_sim.Engine.metrics engine))
      ("net.mcast.vmm0." ^ name)
  in
  let abandoned = counter "gaps_abandoned" in
  Alcotest.(check bool)
    (Printf.sprintf "gap abandoned (count=%d)" abandoned)
    true (abandoned >= 1);
  Alcotest.(check bool) "partition drops counted" true
    (counter "partition_drops" > 0);
  Alcotest.(check bool)
    "delivery resumed past the abandoned gap" true
    (List.mem (Sw_net.Packet.Background 2) !got)

let () =
  Alcotest.run "sw_fault"
    [
      ( "schedule",
        [
          QCheck_alcotest.to_alcotest prop_windows_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick
            test_windows_seed_sensitivity;
          Alcotest.test_case "sorted is build-order independent" `Quick
            test_sorted_stable;
          Alcotest.test_case "target strings" `Quick test_target_strings;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same (seed, schedule) => same bytes" `Slow
            test_same_seed_same_bytes;
          Alcotest.test_case "chaos merged snapshot -j1 = -j4" `Slow
            test_chaos_snapshot_bytes_j1_j4;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "crash -> eject -> restart -> reintegrate" `Quick
            test_crash_lifecycle;
          Alcotest.test_case "watchdog events in the cloud trace" `Quick
            test_watchdog_traced;
        ] );
      ( "egress",
        [
          Alcotest.test_case "vote table bounded under tunnel loss" `Quick
            test_egress_bounded_under_total_loss;
        ] );
      ( "multicast",
        [
          Alcotest.test_case "NAK retries bounded, gap abandoned" `Quick
            test_nak_abandonment;
        ] );
    ]
