(* `main.exe chaos`: fault-rate sweep vs Fig.4-style distinguisher strength.

   Each level derives a deterministic fault schedule from a fixed seed
   (exponential renewal of link-loss bursts, latency spikes, tunnel drops,
   Dom0 pauses, machine slowdowns, multicast partitions, plus one replica
   crash-and-restart) and runs the Fig. 4 victim / no-victim scenario pair
   under it, with the degradation machinery armed (VMM heartbeats, watchdog,
   egress vote expiry, replay log). Reported per level: the KS observations
   needed to detect the victim at 0.95 — StopWatch's timing protection
   should not collapse just because the infrastructure is faulty — and the
   fault/degradation counters (injections, ejections, reintegrations,
   expired egress votes, abandoned multicast gaps, time degraded).

   Both scenarios of a level share one schedule, so the comparison isolates
   the victim's load from the injected chaos. [-quick] shrinks the sweep to
   a CI smoke (two levels, short duration). *)

open Sw_experiments
module Time = Sw_sim.Time
module Prng = Sw_sim.Prng
module Fault = Sw_fault.Fault
module Schedule = Sw_fault.Schedule
module Scenario = Sw_attack.Scenario
module Runner = Sw_runner.Runner
module Report = Sw_runner.Report
module Snapshot = Sw_obs.Snapshot

(* Degradation machinery on, sized so only a real crash (restarted after
   250 ms) trips the watchdog — transient Dom0 pauses and slowdowns keep
   the engine-driven heartbeats alive. *)
let chaos_config =
  {
    Sw_vmm.Config.default with
    Sw_vmm.Config.replay_log = true;
    vmm_heartbeat = Some (Time.ms 5);
    watchdog =
      Some
        { Sw_vmm.Config.timeout = Time.ms 50; period = Time.ms 20; retries = 2 };
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

(* The attacker VM (vm 0) loses replica 1 a third of the way in and gets it
   back 250 ms later: every chaos level past "none" exercises the full
   crash -> eject -> restart -> reintegrate lifecycle. *)
let schedule ~duration ~mean_gap ~mean_span =
  let m = chaos_config.Sw_vmm.Config.replicas in
  let machines = (3 * m) - 2 in
  let crash =
    Schedule.at
      (Time.div_int duration 3)
      (Fault.Replica_crash
         { vm = 0; replica = 1; restart_after = Some (Time.ms 250) })
  in
  crash
  :: Schedule.windows ~seed:0xC4A05FA0L ~until:duration ~mean_gap ~mean_span
       ~make:(make_fault ~machines ~replicas:m)

let levels ~quick ~duration =
  let windowed name ~gap_ms ~span_ms =
    ( name,
      schedule ~duration ~mean_gap:(Time.ms gap_ms) ~mean_span:(Time.ms span_ms)
    )
  in
  if quick then
    [ ("none", Schedule.empty); windowed "heavy" ~gap_ms:150 ~span_ms:40 ]
  else
    [
      ("none", Schedule.empty);
      windowed "mild" ~gap_ms:2000 ~span_ms:30;
      windowed "moderate" ~gap_ms:500 ~span_ms:40;
      windowed "heavy" ~gap_ms:150 ~span_ms:40;
    ]

let sum_counters snapshot ~suffix =
  List.fold_left
    (fun acc (name, data) ->
      match data with
      | Snapshot.Counter v when String.ends_with ~suffix name -> acc + v
      | _ -> acc)
    0
    (Snapshot.to_list snapshot)

let run ?pool ~quick () =
  Tables.section
    (if quick then "Chaos smoke (fault sweep, quick)"
     else "Chaos — fault rates vs distinguisher strength");
  let duration = if quick then Time.s 4 else Time.s 20 in
  let base =
    { Scenario.default with Scenario.config = chaos_config; duration }
  in
  let levels = levels ~quick ~duration in
  let jobs =
    List.concat_map
      (fun (name, faults) ->
        List.map
          (fun victim ->
            let key =
              Printf.sprintf "chaos/%s/%s" name
                (if victim then "victim" else "no-victim")
            in
            (key, fun () -> Scenario.run { base with Scenario.victim; faults }))
          [ false; true ])
      levels
  in
  let on_event =
    match pool with
    | Some _ -> Some (Runner.progress_printer ~total:(List.length jobs))
    | None -> None
  in
  let results = List.map Runner.get (Runner.map ?pool ?on_event jobs) in
  let pairs =
    let rec pair = function
      | no :: yes :: rest -> (no, yes) :: pair rest
      | [] -> []
      | _ -> assert false
    in
    List.combine (List.map fst levels) (pair results)
  in
  Tables.header ~width:13
    [ "level"; "ks95 obs"; "deliveries"; "faults"; "eject"; "rejoin"; "deg ms" ];
  let entries =
    List.map
      (fun (name, (no_vic, vic)) ->
        let merged =
          Snapshot.merge no_vic.Scenario.metrics vic.Scenario.metrics
        in
        Bench_report.add_metrics merged;
        let ks =
          Sw_leak.Detector.(ks.observations_needed)
            ~null:no_vic.Scenario.attacker_inter_delivery_ms
            ~alt:vic.Scenario.attacker_inter_delivery_ms ~confidence:0.95
        in
        (* Degradation counters read from the victim run (both runs share
           the schedule; the victim one is the attacked configuration). *)
        let m = vic.Scenario.metrics in
        let injected = Snapshot.counter m "fault.injected" in
        let ejections = Snapshot.counter m "vm0.ejections" in
        let reintegrations = Snapshot.counter m "vm0.reintegrations" in
        let expired = Snapshot.counter m "net.egress.expired_votes" in
        let abandoned = sum_counters m ~suffix:".gaps_abandoned" in
        let degraded_ms = Snapshot.sum m "vm0.degraded_ns" /. 1e6 in
        Tables.row ~width:13
          [
            name;
            Tables.f0 ks;
            string_of_int vic.Scenario.deliveries;
            string_of_int injected;
            string_of_int ejections;
            string_of_int reintegrations;
            Tables.f1 degraded_ms;
          ];
        ( name,
          Report.Obj
            [
              ("ks95_observations", Report.Float ks);
              ("deliveries", Report.Int vic.Scenario.deliveries);
              ("divergences", Report.Int vic.Scenario.divergences);
              ("faults_injected", Report.Int injected);
              ("ejections", Report.Int ejections);
              ("reintegrations", Report.Int reintegrations);
              ("egress_expired_votes", Report.Int expired);
              ("mcast_gaps_abandoned", Report.Int abandoned);
              ("degraded_ms", Report.Float degraded_ms);
            ] ))
      pairs
  in
  (* The crash level must actually have cycled the lifecycle — fail the
     bench loudly if degradation never engaged (CI smoke relies on it). *)
  List.iter
    (fun (name, entry) ->
      match entry with
      | Report.Obj fields when name <> "none" ->
          let int k =
            match List.assoc k fields with Report.Int v -> v | _ -> 0
          in
          if int "ejections" = 0 || int "reintegrations" = 0 then
            failwith
              (Printf.sprintf
                 "chaos/%s: crash lifecycle did not complete (ejections=%d \
                  reintegrations=%d)"
                 name (int "ejections") (int "reintegrations"))
      | _ -> ())
    entries;
  Bench_report.add (if quick then "chaos-quick" else "chaos")
    (Report.Obj entries)
