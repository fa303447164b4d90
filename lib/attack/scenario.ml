module Time = Sw_sim.Time
module Address = Sw_net.Address
module Cloud = Stopwatch.Cloud
module Host = Stopwatch.Host
module Probe = Sw_apps.Probe

type spec = {
  config : Sw_vmm.Config.t;
  baseline : bool;
  victim : bool;
  colluder : bool;
  ping_rate_per_s : float;
  duration : Time.t;
  seed : int64;
  faults : Sw_fault.Schedule.t;
  trace : Sw_obs.Trace.t option;
  profile : Sw_obs.Profile.t option;
}

let default =
  {
    config = Sw_vmm.Config.default;
    baseline = false;
    victim = false;
    colluder = false;
    ping_rate_per_s = 40.;
    duration = Time.s 60;
    seed = 0xA77ACCL;
    faults = Sw_fault.Schedule.empty;
    trace = None;
    profile = None;
  }

let with_replicas spec m =
  { spec with config = { spec.config with Sw_vmm.Config.replicas = m } }

type result = {
  attacker_inter_delivery_ms : float array;
  observer_inter_arrival_ms : float array;
  deliveries : int;
  divergences : int;
  median_share : float array;
  metrics : Sw_obs.Snapshot.t;
}

(* --- The probe rig, shared with workload scenarios' attack placement ---- *)

let start_pings pinger ~dst ~seed ~rate_per_s =
  let rng = Sw_sim.Prng.create (Int64.add seed 17L) in
  let count = ref 0 in
  let rec ping () =
    let gap = Sw_sim.Prng.exponential rng ~rate:rate_per_s in
    Host.after pinger (Time.of_float_s gap) (fun () ->
        incr count;
        Host.send pinger ~dst ~size:100
          (Sw_net.Packet.App (Sw_net.Msg.Probe_ping !count));
        ping ())
  in
  ping ()

let observed_replica attacker ~baseline ~replicas =
  let machine = if baseline then 0 else replicas - 1 in
  match Cloud.replica_on attacker ~machine with
  | Some i -> i
  | None -> List.hd (Cloud.replicas attacker)

let lineage_series tr =
  List.map
    (fun ((vm, mech), xs) ->
      (Printf.sprintf "vm%d/%s" vm (Sw_obs.Lineage.mechanism_label mech), xs))
    (Sw_obs.Lineage.observations (Sw_obs.Lineage.of_trace tr))

(* Machine layout (StopWatch mode, m replicas):
   - attacker on 0 .. m-1
   - victim on m-1 .. 2m-2        (shares exactly machine m-1)
   - colluder on 0, 2m-1 .. 3m-3  (shares exactly machine 0)
   In baseline mode everything lands on machine 0. *)
let run spec =
  let m = spec.config.Sw_vmm.Config.replicas in
  let machines = if spec.baseline then 1 else (3 * m) - 2 in
  let cloud =
    Cloud.create ~config:spec.config ~seed:spec.seed ?profile:spec.profile
      ~machines ()
  in
  (* Attach before deploying so the whole run lands in the sink. *)
  Option.iter (Cloud.attach_trace cloud) spec.trace;
  let deploy_guest ~on ~app =
    if spec.baseline then Cloud.deploy_baseline cloud ~on:0 ~app
    else Cloud.deploy cloud ~on ~app
  in
  let pinger = Cloud.add_host cloud () in
  let observer = Cloud.add_host cloud () in
  let victim_sink = Cloud.add_host cloud () in
  let attacker =
    deploy_guest
      ~on:(List.init m (fun i -> i))
      ~app:(Probe.receiver ~echo_to:(Host.address observer) ())
  in
  let instance = observed_replica attacker ~baseline:spec.baseline ~replicas:m in
  Sw_vmm.Vmm.record_inter_delivery instance;
  Host.record_inter_arrival observer;
  if spec.victim then begin
    let on = List.init m (fun i -> m - 1 + i) in
    ignore
      (deploy_guest ~on
         ~app:
           (Probe.streamer
              ~sink:(Host.address victim_sink)
              ~period:(Time.ms 5) ~burst:72 ~bytes_per_packet:1400))
  end;
  if spec.colluder then begin
    let on = 0 :: List.init (m - 1) (fun i -> (2 * m) - 1 + i) in
    (* Sec. IX's collaborator loads machine 0's device models, so that
       machine 0's replica is the one marginalised from the median. *)
    ignore
      (deploy_guest ~on
         ~app:(Probe.load_generator ~sink:(Host.address victim_sink)))
  end;
  if spec.faults <> Sw_fault.Schedule.empty then
    ignore (Cloud.install_faults cloud spec.faults);
  start_pings pinger ~dst:(Cloud.vm_address attacker) ~seed:spec.seed
    ~rate_per_s:spec.ping_rate_per_s;
  Cloud.run cloud ~until:spec.duration;
  let metrics = Cloud.metrics_snapshot cloud in
  let prefix = Sw_vmm.Vmm.metric_prefix instance in
  let median_share =
    if spec.baseline then [||]
    else begin
      (* Fractional median credits live as [Sum] metrics, one per proposer. *)
      let counts =
        Array.init m (fun k ->
            Sw_obs.Snapshot.sum metrics
              (Printf.sprintf "%s.median.source.r%d" prefix k))
      in
      let total = Array.fold_left ( +. ) 0. counts in
      if total = 0. then counts else Array.map (fun c -> c /. total) counts
    end
  in
  {
    attacker_inter_delivery_ms = Sw_vmm.Vmm.inter_delivery_virts_ms instance;
    observer_inter_arrival_ms = Host.inter_arrival_ms observer;
    deliveries = Sw_obs.Snapshot.counter metrics (prefix ^ ".net_deliveries");
    divergences =
      Sw_obs.Snapshot.counter metrics
        (Printf.sprintf "vm%d.divergences" (Cloud.vm_id attacker));
    median_share;
    metrics;
  }

(* --- Leak-audit observation extraction --------------------------------- *)

(* Successive-difference jitter: the dispersion view of a timing series. A
   contention channel that reshapes a distribution without moving its mean
   (pacing pins the mean of gaps, uniform arrival pins the mean of waits)
   still moves the mean of |x(i+1) - x(i)|, which puts it in reach of the
   location-based detectors. *)
let jitter xs =
  if Array.length xs < 2 then [||]
  else Array.init (Array.length xs - 1) (fun i -> abs_float (xs.(i + 1) -. xs.(i)))

(* The attacker's end-to-end ping latency (ingress stamp -> delivery on the
   guest's virtual clock): the headline attacker-observable series. *)
let headline_key = "attacker/ping-latency"

let leak_series spec =
  let tr = Sw_obs.Trace.create ~keep:Sw_obs.Lineage.reads () in
  let spec = { spec with trace = Some tr } in
  let r = run spec in
  (* The attacker is deployed first, so its VM id is 0; its ingress-latency
     series is promoted to the headline key (the pinger is the attack
     apparatus's own agent, so send times are known to the attacker even
     though the ingress stamp is not guest-visible). *)
  let promoted =
    "vm0/" ^ Sw_obs.Lineage.mechanism_label Sw_obs.Lineage.Ingress_latency
  in
  let lineage =
    List.map
      (fun (key, xs) ->
        if String.equal key promoted then (headline_key, xs) else (key, xs))
      (lineage_series tr)
  in
  let jitter_series =
    match List.assoc_opt headline_key lineage with
    | Some lat -> [ ("attacker/ping-jitter", jitter lat) ]
    | None -> []
  in
  (("attacker/inter-delivery", r.attacker_inter_delivery_ms) :: lineage)
  @ jitter_series
