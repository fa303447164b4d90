module Time = Sw_sim.Time
module Prng = Sw_sim.Prng
module Affinity = Sw_placement.Affinity
module Cloud = Stopwatch.Cloud
module Host = Stopwatch.Host
module Probe = Sw_apps.Probe
module Scenario = Sw_attack.Scenario
module Snapshot = Sw_obs.Snapshot
module Audit = Sw_leak.Audit
module Runner = Sw_runner.Runner

type result = {
  issued : int;
  completed : int;
  hits : int;
  misses : int;
  p50_ms : float;
  p99_ms : float;
  attacker_inter_delivery_ms : float array;
  leak_series : (string * float array) list;
  metrics : Snapshot.t;
  fired : int;
  cross_shard : int;
}

(* The [q]-quantile (in ms) of a snapshot histogram: the upper bound of the
   first bucket whose cumulative count reaches [q], clamped to the observed
   min/max; [0.] when the histogram is absent or empty. *)
let quantile_ms snapshot name q =
  match Snapshot.histogram snapshot name with
  | None -> 0.
  | Some h when h.Snapshot.count = 0 -> 0.
  | Some h ->
      let target =
        let t = int_of_float (ceil (q *. float_of_int h.Snapshot.count)) in
        if t < 1 then 1 else if t > h.Snapshot.count then h.Snapshot.count else t
      in
      let rec walk cum = function
        | [] -> h.Snapshot.max
        | (idx, n) :: rest ->
            let cum = cum + n in
            if cum >= target then Sw_obs.Buckets.bound idx else walk cum rest
      in
      let bound = walk 0 h.Snapshot.buckets in
      let bound = Int.max h.Snapshot.min (Int.min h.Snapshot.max bound) in
      Time.to_float_ms bound

(* Everything in flight when the offered load stops gets this long to
   drain before we snapshot. *)
let drain = Time.ms 500

type handle = {
  cloud : Cloud.t;
  until : Time.t;
  finish : unit -> result;
  observe : unit -> (string * float array) list;
}

let prepare_single (w : Dsl.workload) =
  let m = w.replicas in
  let config = { Sw_vmm.Config.default with Sw_vmm.Config.replicas = m } in
  let machines = if w.stopwatch then m else 1 in
  let cloud = Cloud.create ~config ~seed:w.seed ~machines () in
  let trace =
    if not w.leak_audit then None
    else begin
      let tr =
        Sw_obs.Trace.create ~keep:Sw_obs.Lineage.reads
          ~metrics:(Cloud.metrics cloud) ()
      in
      Cloud.attach_trace cloud tr;
      Some tr
    end
  in
  let deploy_guest ~app =
    if w.stopwatch then
      Cloud.deploy cloud ~on:(List.init m (fun i -> i)) ~app
    else Cloud.deploy_baseline cloud ~on:0 ~app
  in
  let kv_config =
    {
      Kv.cache = w.cache;
      compute_branches = w.compute_branches;
      header_bytes = w.header_bytes;
      tcp = None;
    }
  in
  let service = deploy_guest ~app:(Kv.server kv_config) in
  (* Optional attack placement: the Fig. 4 receiver co-resident with the
     service (same machines, so its replicas time-share with the service's),
     pinged from an external host and echoing to an external observer. *)
  let probe =
    match w.attack with
    | None -> None
    | Some { Dsl.ping_rate_per_s } ->
        let pinger = Cloud.add_host cloud () in
        let observer = Cloud.add_host cloud () in
        let attacker =
          deploy_guest
            ~app:(Probe.receiver ~echo_to:(Host.address observer) ~echo_every:1 ())
        in
        Scenario.start_pings pinger ~dst:(Cloud.vm_address attacker) ~seed:w.seed
          ~rate_per_s:ping_rate_per_s;
        Some attacker
  in
  if w.faults <> [] then ignore (Cloud.install_faults cloud w.faults);
  let client = Cloud.add_host cloud () in
  let flow =
    Flowgen.launch ~host:client ~dst:(Cloud.vm_address service)
      ~registry:(Cloud.metrics cloud)
      ~rng:(Prng.create (Int64.add w.seed 29L))
      {
        Flowgen.arrival = w.arrival;
        classes = w.classes;
        keyspace = Keyspace.create ~keys:w.keys ~theta:w.theta;
        pool = w.pool;
        max_per_conn = w.max_per_conn;
        request_bytes = w.request_bytes;
        until = w.duration;
      }
  in
  let attacker_series () =
    match probe with
    | None -> [||]
    | Some attacker ->
        Sw_vmm.Vmm.inter_delivery_virts_ms
          (Scenario.observed_replica attacker ~baseline:(not w.stopwatch)
             ~replicas:m)
  in
  (* The leak-observation extraction: the probe's guest-visible series plus
     every per-(vm, mechanism) lineage series, keyed for attribution. Safe
     to call mid-run (the soak driver samples it at checkpoint points). *)
  let observe () =
    if not w.leak_audit then []
    else begin
      let lineage_series =
        match trace with None -> [] | Some tr -> Scenario.lineage_series tr
      in
      let head =
        match attacker_series () with
        | [||] -> []
        | xs -> [ ("attacker/inter-delivery", xs) ]
      in
      head @ lineage_series
    end
  in
  let finish () =
    let metrics = Cloud.metrics_snapshot cloud in
    let attacker_inter_delivery_ms = attacker_series () in
    {
      issued = Flowgen.issued flow;
      completed = Flowgen.completed flow;
      hits = Flowgen.hits flow;
      misses = Flowgen.misses flow;
      p50_ms = quantile_ms metrics "workload.response_ns" 0.5;
      p99_ms = quantile_ms metrics "workload.response_ns" 0.99;
      attacker_inter_delivery_ms;
      leak_series = observe ();
      metrics;
      fired = Cloud.total_fired cloud;
      cross_shard = Cloud.cross_shard_exchanged cloud;
    }
  in
  { cloud; until = Time.add w.duration drain; finish; observe }

(* The cell-level communication graph of a topology scenario: one node per
   service cell, one weighted edge per east-west flow (cell c talks to cell
   (c + stride) mod cells at the configured rate). Intra-cell replica
   traffic never appears — replica groups are partition atoms, so only
   inter-cell edges can ever be cut. *)
let traffic_graph (w : Dsl.workload) =
  match w.Dsl.topology with
  | None -> { Affinity.cells = 1; edges = [] }
  | Some topo ->
      let cells = topo.Dsl.hosts / w.replicas in
      let edges =
        if topo.Dsl.east_west_rate_per_s <= 0. || cells < 2 then []
        else
          List.init cells (fun c ->
              {
                Affinity.a = c;
                b = (c + topo.Dsl.east_west_stride) mod cells;
                weight = topo.Dsl.east_west_rate_per_s;
              })
      in
      { Affinity.cells; edges }

(* Datacenter-scale topology runs: [hosts] machines carved into
   [hosts/replicas] independent service cells, each with its own replica
   group, open-loop client, and (optionally) a low-rate east-west flow
   toward the cell [east_west_stride] further on — genuine cross-shard
   traffic under [shards > 1].

   The scenario is configured so that the shard count cannot change any
   result byte: links carry zero jitter and zero loss and disks zero
   seek/rotation, so no event consults the legacy shared-stream generator
   (the one whose draw order is partition-dependent); every client
   generator is derived from [(seed, purpose, cell)] alone. The remaining
   cross-shard reordering is between same-instant events of *different*
   cells, which share no state. *)
let prepare_datacenter ?assign (w : Dsl.workload)
    (topo : Dsl.topology) =
  let r = w.replicas in
  let cells = topo.Dsl.hosts / r in
  let config =
    {
      Sw_vmm.Config.default with
      Sw_vmm.Config.replicas = r;
      disk =
        {
          Sw_disk.Disk.default_params with
          Sw_disk.Disk.max_seek = Time.zero;
          max_rotation = Time.zero;
        };
    }
  in
  (* The topology may coarsen the scheduler quantum: at the 10k-host scale
     the per-slice events of idle guests are the simulation's whole cost,
     and the traffic under study disappears into them at the default
     200 us. Uniform across machines, so shard count and partition still
     never change the bytes. *)
  let config =
    match topo.Dsl.quantum_us with
    | None -> config
    | Some us ->
        { config with Sw_vmm.Config.quantum = Time.of_float_s (us *. 1e-6) }
  in
  (* Fleet-wide fabric hop: every access link in the datacenter crosses the
     aggregation layer, so it carries the same 500 us propagation delay as
     the client links below. Zero jitter keeps the scenario draw-free (the
     determinism contract), and the uniform 500 us floor is also the
     conservative lookahead the sharded conductor derives — windows wide
     enough that per-shard compute dwarfs the barrier cost. *)
  let default_link =
    {
      Sw_net.Network.lan with
      Sw_net.Network.latency = Time.us 500;
      jitter = Time.zero;
    }
  in
  let client_link =
    {
      Sw_net.Network.latency = Time.us 500;
      jitter = Time.zero;
      bandwidth_bps = 0;
      loss = 0.;
    }
  in
  (* Cell-to-shard assignment, expanded to the machine map Cloud.create
     takes (machine m belongs to cell m / r, and cells are atoms). [`Assign]
     is the test hook: any explicit cell map, e.g. a random one from the
     partition-independence property test. *)
  let cell_assign =
    match assign with
    | Some a ->
        if Array.length a <> cells then
          invalid_arg
            (Printf.sprintf
               "Run: partition assigns %d cells, topology has %d"
               (Array.length a) cells);
        Some (Array.copy a)
    | None -> (
        match topo.Dsl.partition with
        | Dsl.Contiguous -> None
        | Dsl.Affinity ->
            let plan = Affinity.partition (traffic_graph w) ~shards:topo.Dsl.shards in
            Some plan.Affinity.shard_of_cell)
  in
  let cloud_partition =
    match cell_assign with
    | None -> `Contiguous
    | Some assign -> `Affinity (Array.init topo.Dsl.hosts (fun m -> assign.(m / r)))
  in
  let cloud =
    Cloud.create ~config ~seed:w.seed ~default_link ~machines:topo.Dsl.hosts
      ~shards:topo.Dsl.shards ~partition:cloud_partition ()
  in
  (* The rack-local replica interconnect: a fast directed link for every
     ordered VMM pair inside a cell, installed before any deployment sends a
     byte (link parameters latch at first use). Cells are partition atoms,
     so these overrides are intra-shard on every fabric and — by
     construction of Network.min_latency_to — never lower a cross-shard
     lookahead floor. *)
  (match topo.Dsl.replica_link_us with
  | None -> ()
  | Some us ->
      let fast =
        {
          Sw_net.Network.latency = Time.of_float_s (us *. 1e-6);
          jitter = Time.zero;
          bandwidth_bps = default_link.Sw_net.Network.bandwidth_bps;
          loss = 0.;
        }
      in
      for c = 0 to cells - 1 do
        for i = 0 to r - 1 do
          for j = 0 to r - 1 do
            if i <> j then
              Cloud.set_pair_link cloud
                ~src:(Sw_net.Address.Vmm ((c * r) + i))
                ~dst:(Sw_net.Address.Vmm ((c * r) + j))
                fast
          done
        done
      done);
  let kv_config =
    {
      Kv.cache = w.cache;
      compute_branches = w.compute_branches;
      header_bytes = w.header_bytes;
      tcp = None;
    }
  in
  let services =
    Array.init cells (fun c ->
        Cloud.deploy cloud
          ~on:(List.init r (fun i -> (c * r) + i))
          ~app:(Kv.server kv_config))
  in
  let flow_config ~arrival =
    {
      Flowgen.arrival;
      classes = w.classes;
      keyspace = Keyspace.create ~keys:w.keys ~theta:w.theta;
      pool = w.pool;
      max_per_conn = w.max_per_conn;
      request_bytes = w.request_bytes;
      until = w.duration;
    }
  in
  let flows = ref [] in
  for c = 0 to cells - 1 do
    let shard = Cloud.shard_of_machine cloud (c * r) in
    let registry = Cloud.shard_registry cloud shard in
    let client = Cloud.add_host cloud ~link:client_link ~shard () in
    let own =
      Flowgen.launch
        ~prefix:(Printf.sprintf "workload.cell%d" c)
        ~host:client
        ~dst:(Cloud.vm_address services.(c))
        ~registry
        ~rng:(Prng.derive ~seed:w.seed [ 0x29L; Int64.of_int c ])
        (flow_config ~arrival:w.arrival)
    in
    flows := own :: !flows;
    if topo.Dsl.east_west_rate_per_s > 0. && cells > 1 then begin
      (* A separate host per flow: each Flowgen owns its TCP adapter. *)
      let ew_host = Cloud.add_host cloud ~link:client_link ~shard () in
      let ew =
        Flowgen.launch
          ~prefix:(Printf.sprintf "workload.ew%d" c)
          ~host:ew_host
          ~dst:(Cloud.vm_address services.((c + topo.Dsl.east_west_stride) mod cells))
          ~registry
          ~rng:(Prng.derive ~seed:w.seed [ 0x2AL; Int64.of_int c ])
          (flow_config
             ~arrival:
               (Arrival.Poisson { rate_per_s = topo.Dsl.east_west_rate_per_s }))
      in
      flows := ew :: !flows
    end
  done;
  let finish () =
    let metrics = Cloud.metrics_snapshot cloud in
    (* Cell response times live under per-cell names; fold them into one
       cloud-wide histogram for the headline quantiles. *)
    let merged =
      Snapshot.merge_all
        (List.filter_map
           (fun c ->
             match
               Snapshot.histogram metrics
                 (Printf.sprintf "workload.cell%d.response_ns" c)
             with
             | None -> None
             | Some h ->
                 Some
                   (Snapshot.of_list
                      [ ("workload.response_ns", Snapshot.Histogram h) ]))
           (List.init cells Fun.id))
    in
    let sum f = List.fold_left (fun acc fl -> acc + f fl) 0 !flows in
    {
      issued = sum Flowgen.issued;
      completed = sum Flowgen.completed;
      hits = sum Flowgen.hits;
      misses = sum Flowgen.misses;
      p50_ms = quantile_ms merged "workload.response_ns" 0.5;
      p99_ms = quantile_ms merged "workload.response_ns" 0.99;
      attacker_inter_delivery_ms = [||];
      leak_series = [];
      metrics;
      fired = Cloud.total_fired cloud;
      cross_shard = Cloud.cross_shard_exchanged cloud;
    }
  in
  { cloud; until = Time.add w.duration drain; finish; observe = (fun () -> []) }

let prepare ?shards ?partition (w : Dsl.workload) =
  let assign, partition =
    match partition with
    | None -> (None, None)
    | Some (`Assign a) -> (Some a, None)
    | Some `Contiguous -> (None, Some Dsl.Contiguous)
    | Some `Affinity -> (None, Some Dsl.Affinity)
  in
  match
    Dsl.override ?shards ?partition { Dsl.name = ""; kind = Dsl.Workload w }
  with
  | Error e -> invalid_arg ("Run: " ^ e)
  | Ok { Dsl.kind = Dsl.Attack _; _ } -> assert false (* override keeps kinds *)
  | Ok { Dsl.kind = Dsl.Workload w; _ } -> (
      match w.topology with
      | Some topo -> prepare_datacenter ?assign w topo
      | None -> prepare_single w)

let run ?shards ?partition (w : Dsl.workload) =
  let h = prepare ?shards ?partition w in
  Cloud.run h.cloud ~until:h.until;
  h.finish ()

let map_variants ?pool make variants =
  let jobs = List.map (fun (key, v) -> (key, fun () -> make v)) variants in
  List.map2
    (fun (key, _) r -> (key, Runner.get r))
    variants
    (Runner.map ?pool jobs)

(* Attack variants group by backend and colluder; within each group the
   victim run is the alternative and the no-victim run the null. *)
let attack_audits ?pool ~registry (a : Dsl.attack) =
  let specs = Dsl.attack_specs a in
  let series = map_variants ?pool Scenario.leak_series specs in
  let group_of (s : Scenario.spec) =
    (if s.Scenario.baseline then "baseline" else "stopwatch")
    ^ if s.Scenario.colluder then "+colluder" else ""
  in
  let labels =
    List.fold_left
      (fun acc (_, spec) ->
        let g = group_of spec in
        if List.mem g acc then acc else acc @ [ g ])
      [] specs
  in
  List.filter_map
    (fun label ->
      let side victim =
        List.find_map
          (fun ((_, spec), (_, xs)) ->
            if group_of spec = label && spec.Scenario.victim = victim then
              Some xs
            else None)
          (List.combine specs series)
      in
      match (side false, side true) with
      | Some null, Some alt ->
          Some (Audit.run ~registry ~label (Audit.pair ~null ~alt))
      | _ -> None)
    labels

let audits ?pool ~registry (t : Dsl.t) =
  match t.Dsl.kind with
  | Dsl.Attack a -> attack_audits ?pool ~registry a
  | Dsl.Workload w -> (
      let w = { w with Dsl.leak_audit = true } in
      let series =
        map_variants ?pool
          (fun w -> (run w).leak_series)
          [
            ("leak/stopwatch-on", { w with Dsl.stopwatch = true });
            ("leak/stopwatch-off", { w with Dsl.stopwatch = false });
          ]
      in
      match series with
      | [ (_, null); (_, alt) ] ->
          [
            Audit.run ~registry ~label:"stopwatch-off vs stopwatch-on"
              (Audit.pair ~null ~alt);
          ]
      | _ -> [])
