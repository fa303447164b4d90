module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Conductor = Sw_sim.Conductor
module Int_tbl = Sw_obs.Int_tbl
module Address = Sw_net.Address

type deployment = {
  vm : int;
  group : Sw_vmm.Replica_group.t;
  instances : (int * Sw_vmm.Vmm.instance) list;  (** (machine id, instance) *)
  watchdog : Sw_vmm.Watchdog.t option;
}

(* One shard: an engine with its own registry, the network fabric for the
   shard's machines, and the shard's edge nodes. *)
type shard_ctx = {
  sh_engine : Engine.t;
  sh_network : Sw_net.Network.t;
  sh_ingress : Sw_net.Ingress.t;
  sh_egress : Sw_net.Egress.t;
}

type t = {
  seed : int64;
  config : Sw_vmm.Config.t;
  shards : shard_ctx array;
  block : int array;  (* machine id -> owning shard *)
  machines : Sw_vmm.Machine.t array;
  vmms : Sw_vmm.Vmm.t array;
  background_rng : Sw_sim.Prng.t option;
      (* one shard: the engine's split taken after the machines' *)
  vm_shard : int Int_tbl.t;
  host_shard : int Int_tbl.t;
  mutable conductor : Conductor.t option;  (* built lazily at first run *)
  mutable next_vm : int;
  mutable next_host : int;
  mutable deployments : deployment list;
}

let sharded t = Array.length t.shards > 1

(* Contiguous machine blocks, sizes as even as possible, low shards first. *)
let contiguous_partition ~machines ~shards =
  let base = machines / shards and rem = machines mod shards in
  let block = Array.make machines 0 in
  let m = ref 0 in
  for s = 0 to shards - 1 do
    let size = base + if s < rem then 1 else 0 in
    for _ = 1 to size do
      block.(!m) <- s;
      incr m
    done
  done;
  block

(* Owning shard of a delivery target, as seen from shard [self]: per-shard
   addresses (Ingress, Egress, broadcast) and unknown ids resolve to
   [self]. Shared by the cross-shard send path, the lookahead matrix, and
   pair-link installation, so all three agree on ownership. *)
let locate t self = function
  | Address.Vmm m -> t.block.(m)
  | Address.Vm v -> (
      match Int_tbl.find t.vm_shard v with sh -> sh | exception Not_found -> self)
  | Address.Host h -> (
      match Int_tbl.find t.host_shard h with sh -> sh | exception Not_found -> self)
  | Address.Ingress | Address.Egress | Address.Broadcast_addr -> self

(* An explicit machine-to-shard assignment (the affinity partitioner's
   output, or any caller-supplied map). Every machine must be mapped and
   every shard index in range; replica-group atomicity is enforced where it
   always was, at [deploy] time. *)
let check_assignment assign ~machines ~shards =
  if Array.length assign <> machines then
    invalid_arg
      (Printf.sprintf
         "Cloud.create: partition assigns %d machines, cloud has %d"
         (Array.length assign) machines);
  Array.iteri
    (fun m sh ->
      if sh < 0 || sh >= shards then
        invalid_arg
          (Printf.sprintf
             "Cloud.create: partition puts machine %d on shard %d (of %d)" m
             sh shards))
    assign;
  Array.copy assign

let create ?(config = Sw_vmm.Config.default) ?(seed = 0x57094A7CL)
    ?(default_link = Sw_net.Network.lan) ?(rate_spread = 0.)
    ?(clock_spread = Time.zero) ?profile ?(shards = 1)
    ?(partition = `Contiguous) ~machines () =
  if machines < 1 then invalid_arg "Cloud.create: need at least one machine";
  if shards < 1 then invalid_arg "Cloud.create: need at least one shard";
  if rate_spread < 0. || rate_spread >= 1. then
    invalid_arg "Cloud.create: rate_spread must be in [0, 1)";
  Sw_vmm.Config.validate config;
  let shards = Stdlib.min shards machines in
  let single = shards = 1 in
  let block =
    match partition with
    | `Affinity assign when not single -> check_assignment assign ~machines ~shards
    | `Affinity _ | `Contiguous -> contiguous_partition ~machines ~shards
  in
  (* Stochastic streams. A sharded cloud key-derives every one, so no draw
     depends on the partition. A one-shard cloud keeps the pre-shard splits
     so its seeds reproduce byte for byte: the engine takes [seed] unmixed,
     the hardware stream is the engine's first split, and the network draws
     from the engine rather than from per-link keyed streams. *)
  let engines =
    Array.init shards (fun i ->
        let seed =
          if single then seed
          else Sw_sim.Prng.mix (Sw_sim.Prng.mix seed 0x5A4DL) (Int64.of_int i)
        in
        Engine.create ~seed ~metrics:(Sw_obs.Registry.create ())
          ?profile:(if i = 0 then profile else None)
          ())
  in
  let hw_rng =
    if single then Engine.rng engines.(0)
    else Sw_sim.Prng.derive ~seed [ 0x11A6L ]
  in
  let shard_arr =
    Array.map
      (fun engine ->
        let network =
          Sw_net.Network.create
            ?stream_seed:(if single then None else Some seed)
            engine ~default:default_link
        in
        {
          sh_engine = engine;
          sh_network = network;
          sh_ingress = Sw_net.Ingress.create network;
          sh_egress =
            Sw_net.Egress.create
              ?vote_expiry:config.Sw_vmm.Config.egress_vote_expiry network;
        })
      engines
  in
  (* Hardware spreads draw in machine-id order. *)
  let machine_arr =
    Array.init machines (fun id ->
        let rate_multiplier =
          if rate_spread = 0. then 1.0
          else
            Sw_sim.Prng.uniform hw_rng ~lo:(1. -. rate_spread)
              ~hi:(1. +. rate_spread)
        in
        let clock_offset =
          if Time.equal clock_spread Time.zero then Time.zero
          else
            Time.ns
              (Sw_sim.Prng.int hw_rng ((2 * clock_spread) + 1) - clock_spread)
        in
        let sh = shard_arr.(block.(id)) in
        Sw_vmm.Machine.create sh.sh_engine sh.sh_network ~id ~config
          ~rate_multiplier ~clock_offset ())
  in
  let vmms = Array.map Sw_vmm.Vmm.create machine_arr in
  let t =
    {
      seed;
      config;
      shards = shard_arr;
      block;
      machines = machine_arr;
      vmms;
      background_rng = (if single then Some (Engine.rng engines.(0)) else None);
      vm_shard = Int_tbl.create 16;
      host_shard = Int_tbl.create 16;
      conductor = None;
      next_vm = 0;
      next_host = 0;
      deployments = [];
    }
  in
  (* Wire the cross-shard path: each network resolves a delivery target
     to its owning shard; remote arrivals go through the conductor
     mailbox and are injected on the owner's engine. The conductor is
     built lazily (its lookahead depends on links installed after
     creation), so the post hook late-binds through [t]. One shard owns
     every target, so its network keeps the local path and looks nothing
     up. *)
  if not single then
    Array.iteri
      (fun self sh ->
        Sw_net.Network.set_remote sh.sh_network ~shard:self ~locate:(locate t self)
          ~post:(fun ~dst ~at ~target pkt ->
            match t.conductor with
            | Some c ->
                Conductor.post c ~src:self ~dst ~at (fun () ->
                    Sw_net.Network.inject t.shards.(dst).sh_network ~target pkt)
            | None ->
                invalid_arg
                  "Cloud: cross-shard send outside Cloud.run (no conductor)"))
      shard_arr;
  t

let shard_count t = Array.length t.shards
let shard_of_machine t m = t.block.(m)
let shard_registry t i = Engine.metrics t.shards.(i).sh_engine

let cross_shard_exchanged t =
  match t.conductor with Some c -> Conductor.exchanged c | None -> 0

let total_fired t =
  Array.fold_left (fun acc sh -> acc + Engine.fired sh.sh_engine) 0 t.shards

(* Every component emits through the engine that drives it, so attaching
   the sink to the one engine traces the whole cloud. Single-shard only: a
   trace sink is one mutable buffer and per-shard domains would race on it. *)
let attach_trace t tr =
  if sharded t then
    invalid_arg "Cloud.attach_trace: not supported on a sharded cloud";
  Engine.attach_trace t.shards.(0).sh_engine tr

let engine t = t.shards.(0).sh_engine
let network t = t.shards.(0).sh_network
let metrics t = Engine.metrics (engine t)

let metrics_snapshot t =
  match t.shards with
  | [| sh |] -> Sw_obs.Registry.snapshot (Engine.metrics sh.sh_engine)
  | shards ->
      Sw_obs.Snapshot.merge_all
        (Array.to_list
           (Array.map
              (fun sh -> Sw_obs.Registry.snapshot (Engine.metrics sh.sh_engine))
              shards))

let machine t i =
  if i < 0 || i >= Array.length t.machines then
    invalid_arg "Cloud.machine: index out of range";
  t.machines.(i)

let ingress t = t.shards.(0).sh_ingress
let egress t = t.shards.(0).sh_egress

let fresh_vm_id t =
  let id = t.next_vm in
  t.next_vm <- id + 1;
  id

(* The partition rule: a replica group, its multicast channel, and its edge
   bookkeeping are one atom — every machine hosting a replica of the VM
   must sit in the same shard, so all intra-group traffic (proposals,
   epoch reports, ingress replication, egress voting) stays on one engine. *)
let deployment_shard t ~on =
  match on with
  | [] -> 0
  | m :: rest ->
      let s = t.block.(m) in
      List.iter
        (fun m' ->
          if t.block.(m') <> s then
            invalid_arg
              (Printf.sprintf
                 "Cloud.deploy: machines %d and %d are in different shards \
                  (%d vs %d); replica groups must not cross shards"
                 m m' s t.block.(m')))
        rest;
      s

let deploy ?config t ~on ~app =
  let config = match config with Some c -> c | None -> t.config in
  Sw_vmm.Config.validate config;
  if List.length on <> config.Sw_vmm.Config.replicas then
    invalid_arg
      (Printf.sprintf "Cloud.deploy: expected %d machines, got %d"
         config.Sw_vmm.Config.replicas (List.length on));
  if List.length (List.sort_uniq Stdlib.compare on) <> List.length on then
    invalid_arg "Cloud.deploy: machines must be distinct";
  List.iter (fun m -> ignore (machine t m)) on;
  let shard = deployment_shard t ~on in
  let sh = t.shards.(shard) in
  let vm = fresh_vm_id t in
  Int_tbl.replace t.vm_shard vm shard;
  let group =
    Sw_vmm.Replica_group.create ~metrics:(Engine.metrics sh.sh_engine) ~vm
      ~config ~mode:Sw_vmm.Replica_group.Stopwatch ()
  in
  (* The VM's PGM-style channel: the ingress replicates inbound packets over
     it, the VMMs exchange proposals and epoch reports on it. It takes the
     VM id as its group id, so ids travel in a checkpoint with [next_vm]. A
     receiver NAKs a gap after 300 us and abandons it after the default 5
     re-sends. *)
  let channel =
    Sw_net.Multicast.group sh.sh_network ~id:vm
      ~members:(Address.Ingress :: List.map (fun m -> Address.Vmm m) on)
      ~nak_delay:(Time.us 300)
      ?heartbeat:config.Sw_vmm.Config.mcast_heartbeat ()
  in
  (* Start negotiation (Sec. IV-A): the hosting VMMs exchange their clock
     readings and every replica's virtual clock starts at the median. *)
  let start =
    Sw_vmm.Replica_group.median_time
      (Array.of_list (List.map (fun m -> Sw_vmm.Machine.local_time t.machines.(m)) on))
  in
  let instances =
    List.map (fun m -> (m, Sw_vmm.Vmm.host ~channel ~start t.vmms.(m) ~group ~app)) on
  in
  Sw_net.Ingress.register_vm sh.sh_ingress ~vm ~channel
    ~replicas:config.Sw_vmm.Config.replicas;
  Sw_net.Egress.register_vm sh.sh_egress ~vm
    ~replicas:config.Sw_vmm.Config.replicas;
  (* Degradation keeps the edge nodes in step with the group: the egress
     releases at the majority of the current quorum (not of the original m),
     and the ingress traces the number of live members as its copies. *)
  Sw_vmm.Replica_group.on_membership_change group (fun () ->
      let q = Sw_vmm.Replica_group.quorum group in
      if q > 0 then Sw_net.Egress.set_replicas sh.sh_egress ~vm ~replicas:q;
      let live = Sw_vmm.Replica_group.active_count group in
      if live > 0 then Sw_net.Ingress.set_replicas sh.sh_ingress ~vm ~replicas:live);
  let watchdog =
    match config.Sw_vmm.Config.watchdog with
    | None -> None
    | Some _ -> Some (Sw_vmm.Watchdog.create sh.sh_engine group)
  in
  let d = { vm; group; instances; watchdog } in
  t.deployments <- d :: t.deployments;
  d

let deploy_baseline ?config t ~on ~app =
  let config = match config with Some c -> c | None -> t.config in
  let config = { config with Sw_vmm.Config.replicas = 1 } in
  Sw_vmm.Config.validate config;
  ignore (machine t on);
  let shard = t.block.(on) in
  let sh = t.shards.(shard) in
  let vm = fresh_vm_id t in
  Int_tbl.replace t.vm_shard vm shard;
  let group =
    Sw_vmm.Replica_group.create ~metrics:(Engine.metrics sh.sh_engine) ~vm
      ~config ~mode:Sw_vmm.Replica_group.Baseline ()
  in
  let instance = Sw_vmm.Vmm.host t.vmms.(on) ~group ~app in
  (* Baseline traffic routes straight to the hosting machine. *)
  Sw_net.Network.set_route sh.sh_network ~dst:(Address.Vm vm) ~via:(Address.Vmm on);
  let d = { vm; group; instances = [ (on, instance) ]; watchdog = None } in
  t.deployments <- d :: t.deployments;
  d

let deploy_plan t ~plan ~app =
  if plan.Sw_placement.Placement.machines > Array.length t.machines then
    invalid_arg "Cloud.deploy_plan: plan needs more machines than the cloud has";
  (match Sw_placement.Placement.verify plan with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Cloud.deploy_plan: invalid plan: " ^ reason));
  List.map
    (fun tri -> deploy t ~on:(Sw_placement.Triangle.vertices tri) ~app)
    plan.Sw_placement.Placement.placements

let vm_id d = d.vm
let vm_address d = Address.Vm d.vm
let replicas d = List.map snd d.instances

let replica_on d ~machine =
  List.assoc_opt machine d.instances

let group d = d.group
let divergences d = Sw_vmm.Replica_group.divergences d.group
let skew_blocks d = Sw_vmm.Replica_group.skew_blocks d.group

let add_host t ?(link = Sw_net.Network.wan) ?(shard = 0) () =
  if shard < 0 || shard >= Array.length t.shards then
    invalid_arg "Cloud.add_host: shard out of range";
  let id = t.next_host in
  t.next_host <- id + 1;
  Int_tbl.replace t.host_shard id shard;
  let host = Host.create t.shards.(shard).sh_network ~id ~link () in
  (* Every shard must see the host's access-link override: cross-shard
     sends compute the arrival on the *sender's* network, and a remote
     sender falling back to the fabric default would give the same packet
     a different latency than a local one. *)
  Array.iteri
    (fun i sh ->
      if i <> shard then
        Sw_net.Network.set_node_link sh.sh_network (Address.Host id) link)
    t.shards;
  host

(* A directed pair override lives on the fabric of the shard owning [src]:
   that is the only fabric that ever prices sends from [src], so no
   mirroring is needed — and *not* mirroring is what keeps an intra-shard
   fast link (rack-local replica interconnects) out of every other pair's
   lookahead floor. *)
let set_pair_link t ~src ~dst params =
  let owner = locate t 0 src in
  Sw_net.Network.set_link t.shards.(owner).sh_network ~src ~dst params

let start_background t ~rate_per_s ?(size = 64) () =
  if rate_per_s <= 0. then invalid_arg "Cloud.start_background: rate must be positive";
  (* Sharded clouds draw the arrival process from a keyed stream and emit
     from shard 0; packets to remote VMs take the cross-shard path. *)
  let rng =
    match t.background_rng with
    | Some rng -> rng
    | None -> Sw_sim.Prng.derive ~seed:t.seed [ 0xB406L ]
  in
  let sh = t.shards.(0) in
  let rec arrival () =
    let gap = Sw_sim.Prng.exponential rng ~rate:rate_per_s in
    Engine.schedule_after sh.sh_engine (Time.of_float_s gap) (fun () ->
        List.iter
          (fun d ->
            let pkt =
              Sw_net.Packet.make ~src:Address.Broadcast_addr
                ~dst:(Address.Vm d.vm) ~size
                ~seq:(Sw_net.Network.fresh_seq sh.sh_network)
                (Sw_net.Packet.Background (Sw_net.Network.fresh_seq sh.sh_network))
            in
            Sw_net.Network.send sh.sh_network pkt)
          t.deployments;
        arrival ())
  in
  arrival ()

(* Lookahead for the conservative windows, computed when the conductor is
   first needed, so links installed after [create] (host access links,
   overrides) are accounted for; links added later may only violate the
   bound, which [Conductor.post] then reports. Each shard's fabric gives its
   per-destination-shard floors ({!Sw_net.Network.min_latency_to}), so a
   fast rack-local link only tightens the windows of the pairs that can
   actually traverse it. The matrix replaces the conductor's scalar bound. *)
let conductor t =
  match t.conductor with
  | Some c -> c
  | None ->
      let engines = Array.map (fun sh -> sh.sh_engine) t.shards in
      let n = Array.length t.shards in
      let matrix =
        Array.init n (fun j ->
            Sw_net.Network.min_latency_to t.shards.(j).sh_network
              ~locate:(locate t j) ~self:j ~shards:n)
      in
      let c = Conductor.create ~matrix ~lookahead:Time.zero engines in
      t.conductor <- Some c;
      c

let run t ~until =
  if sharded t then Conductor.run (conductor t) ~until
  else Engine.run ~until (engine t)

let run_span t span = run t ~until:(Time.add (Engine.now (engine t)) span)

(* --- Fault injection --------------------------------------------------- *)

let find_deployment t ~vm = List.find_opt (fun d -> d.vm = vm) t.deployments

let instance_of t ~vm ~replica =
  match find_deployment t ~vm with
  | None -> None
  | Some d ->
      List.find_map
        (fun (_, i) ->
          if Sw_vmm.Replica_group.replica_id (Sw_vmm.Vmm.member i) = replica
          then Some i
          else None)
        d.instances

(* Restart hook for [Fault.Replica_crash]: rebuild the crashed replica from
   any live peer and reinstate it. A no-op when nothing can be done — no
   deployment, replica already live, no survivor to resync from, or no
   replay log to rebuild the guest with. *)
let restart_replica t ~vm ~replica =
  match (find_deployment t ~vm, instance_of t ~vm ~replica) with
  | Some d, Some i
    when Sw_vmm.Vmm.crashed i
         && (Sw_vmm.Replica_group.config d.group).Sw_vmm.Config.replay_log -> (
      let survivor =
        List.find_map
          (fun (_, j) ->
            if
              (not (Sw_vmm.Vmm.crashed j))
              && Sw_vmm.Replica_group.active (Sw_vmm.Vmm.member j)
            then Some j
            else None)
          d.instances
      in
      match survivor with
      | Some from -> Sw_vmm.Vmm.reintegrate i ~from
      | None -> ())
  | _ -> ()

let install_faults t schedule =
  if sharded t then
    invalid_arg "Cloud.install_faults: not supported on a sharded cloud";
  let env =
    {
      Sw_fault.Injector.engine = engine t;
      network = network t;
      machine_of =
        (fun m ->
          if m >= 0 && m < Array.length t.machines then Some t.machines.(m)
          else None);
      instance_of = (fun ~vm ~replica -> instance_of t ~vm ~replica);
      restart = (fun ~vm ~replica -> restart_replica t ~vm ~replica);
    }
  in
  Sw_fault.Injector.install env schedule

(* --- Checkpoint / restore ---------------------------------------------- *)

type restore_error = Incompatible_image of string

let pp_restore_error fmt (Incompatible_image msg) =
  Format.fprintf fmt "incompatible image: %s" msg

let checkpoint t ~extra =
  (* [Closures] serializes the event closures in the wheels (and everything
     they capture) by code pointer + environment; the runtime stamps the
     image with the binary's code digest, so a different build refuses to
     load it instead of jumping to stale addresses. *)
  Marshal.to_string (t, extra) [ Marshal.Closures ]

let restore bytes =
  let len = String.length bytes in
  match
    if len < Marshal.header_size
       || len < Marshal.total_size (Bytes.unsafe_of_string bytes) 0
    then failwith "truncated image";
    (Marshal.from_string bytes 0 : t * _)
  with
  | exception Failure msg -> Error (Incompatible_image msg)
  | restored -> Ok restored
