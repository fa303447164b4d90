(** The top-level StopWatch cloud: machines, ingress/egress nodes, VM
    deployment, and simulation control.

    Typical use:
    {[
      let cloud = Cloud.create ~machines:3 () in
      let vm = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:my_app in
      let client = Cloud.add_host cloud () in
      ...
      Cloud.run cloud ~until:(Sw_sim.Time.s 10)
    ]} *)

type t

type deployment

(** [create ?config ?seed ?default_link ?rate_spread ?clock_spread ?shards
    ~machines ()] builds a cloud of [machines] physical machines over
    [shards] simulation shards (default [1], clamped to [machines]).

    With one shard this is the historical construction — one engine, one
    fabric, one ingress/egress pair — byte-identical to pre-shard builds.
    With [shards >= 2] the machines are split across shards by
    [partition]: [`Contiguous] (the default) cuts contiguous machine
    blocks, [`Affinity assign] adopts an explicit machine-to-shard map —
    typically {!Sw_placement.Affinity}'s plan, which packs
    heavily-communicating cells co-shard (every machine mapped, shard
    indices in range; replica-group atomicity is enforced at {!deploy}
    as always). Each shard gets its own engine (and metric registry),
    network fabric, and ingress/egress pair, and {!run} drives the shards
    concurrently (one OCaml domain each; [parallel:false] runs the same
    windowed protocol round-robin, byte-identical; the default picks the
    round-robin driver when the host reports a single core, where a
    domain gang could only time-slice) under conservative lookahead
    synchronisation — see {!Sw_sim.Conductor}. The conductor's bound is a
    per-shard-pair matrix built from each fabric's
    {!Sw_net.Network.min_latency_to}. The partition cannot change
    results: per-link PRNG streams are key-derived so no draw depends on
    the partition; DESIGN.md "Sharded simulation" states the exact
    determinism contract. {!attach_trace} and {!install_faults} are
    single-shard-only.

    [rate_spread] gives each machine a uniformly drawn execution-speed
    multiplier in [1 ± rate_spread] (heterogeneous hardware; replicas then
    skew in real time and the skew limiter becomes active);
    [clock_spread] draws each machine's real-time-clock error uniformly
    from [± clock_spread]. Both default to zero (identical machines).
    [profile] hands the (first shard's) engine a wall-clock self-profiling
    instance (see {!Sw_sim.Engine.create}). *)
val create :
  ?config:Sw_vmm.Config.t ->
  ?seed:int64 ->
  ?default_link:Sw_net.Network.link_params ->
  ?rate_spread:float ->
  ?clock_spread:Sw_sim.Time.t ->
  ?profile:Sw_obs.Profile.t ->
  ?shards:int ->
  ?parallel:bool ->
  ?partition:[ `Contiguous | `Affinity of int array ] ->
  machines:int ->
  unit ->
  t

(** Number of shards (1 for a legacy single-engine cloud). *)
val shard_count : t -> int

(** The shard owning a machine id (always 0 when unsharded). *)
val shard_of_machine : t -> int -> int

(** Shard [i]'s metric registry. Components driven by shard [i]'s engine —
    including {!Sw_workload.Flowgen} cells launched on hosts added with
    [add_host ~shard:i] — must record here, never into another shard's
    registry: registries are plain mutable cells and shards run on
    separate domains. *)
val shard_registry : t -> int -> Sw_obs.Registry.t

(** Cross-shard packets exchanged at barriers so far (0 when unsharded). *)
val cross_shard_exchanged : t -> int

(** Events fired across all shard engines. *)
val total_fired : t -> int

(** [attach_trace t tr] makes [tr] the cloud-wide trace sink: the ingress
    and egress nodes and every replica VMM — of deployments both existing
    and future — emit their typed events into it. The sink still starts
    disabled; call {!Sw_obs.Trace.enable} to record. *)
val attach_trace : t -> Sw_obs.Trace.t -> unit

(** The cloud-wide sink, when one was attached. *)
val trace : t -> Sw_obs.Trace.t option

(** Times the skew limiter has descheduled this VM's fastest replica. *)
val skew_blocks : deployment -> int

val engine : t -> Sw_sim.Engine.t
val network : t -> Sw_net.Network.t

(** The simulation-wide metrics registry (owned by the engine); every
    component of this cloud records into it. *)
val metrics : t -> Sw_obs.Registry.t

(** Deterministic snapshot of every metric in the cloud — the value the
    runner merges across jobs and the benches export. *)
val metrics_snapshot : t -> Sw_obs.Snapshot.t
val config : t -> Sw_vmm.Config.t
val machine : t -> int -> Sw_vmm.Machine.t
val ingress : t -> Sw_net.Ingress.t
val egress : t -> Sw_net.Egress.t

(** [deploy t ?config ~on ~app] starts a guest VM under StopWatch with one
    replica per machine in [on] (length must equal the configured replica
    count, machines distinct). Returns the deployment handle; the VM's
    address is [Address.Vm (vm_id d)]. *)
val deploy :
  ?config:Sw_vmm.Config.t -> t -> on:int list -> app:Sw_vm.App.factory -> deployment

(** [deploy_baseline t ?config ~on ~app] starts an unreplicated guest on
    machine [on] over the unmodified-Xen baseline. *)
val deploy_baseline :
  ?config:Sw_vmm.Config.t -> t -> on:int -> app:Sw_vm.App.factory -> deployment

(** [deploy_plan t ~plan ~app] deploys one StopWatch VM per triangle of a
    placement plan (all with the same app factory); returns deployments in
    plan order. *)
val deploy_plan :
  t -> plan:Sw_placement.Placement.plan -> app:Sw_vm.App.factory -> deployment list

val vm_id : deployment -> int
val vm_address : deployment -> Sw_net.Address.t
val replicas : deployment -> Sw_vmm.Vmm.instance list

(** The replica on a given machine, if any. *)
val replica_on : deployment -> machine:int -> Sw_vmm.Vmm.instance option

val group : deployment -> Sw_vmm.Replica_group.t

(** The deployment's liveness watchdog — present iff the deploying config
    had [Config.watchdog] set (StopWatch deployments only; baselines never
    run one). *)
val watchdog : deployment -> Sw_vmm.Watchdog.t option

(** Synchrony violations recorded for this VM (paper footnote 4). *)
val divergences : deployment -> int

(** [add_host t ?link ?shard ()] creates an external host with a fresh id,
    attached to [shard]'s fabric (default 0). Packets it sends to VMs or
    hosts owned by other shards take the cross-shard path. *)
val add_host :
  t -> ?link:Sw_net.Network.link_params -> ?shard:int -> unit -> Host.t

(** [set_pair_link t ~src ~dst params] overrides the directed link
    [src -> dst] on the fabric of the shard owning [src] — the only fabric
    that prices sends from [src], so unlike a host's access link the
    override is not mirrored. Use it for intra-shard fast paths (e.g. a
    rack-local replica interconnect below the fabric default): because it
    stays off every other fabric, it never drags another shard pair's
    lookahead floor down with it. Install before traffic first crosses the
    pair (link parameters are latched at first use). *)
val set_pair_link :
  t ->
  src:Sw_net.Address.t ->
  dst:Sw_net.Address.t ->
  Sw_net.Network.link_params ->
  unit

(** [start_background t ~rate_per_s ~size ()] emits ARP-like broadcast noise:
    Poisson arrivals addressed to every deployed VM (replicated through the
    ingress exactly like guest traffic, as in the paper's testbed). Runs for
    the rest of the simulation. *)
val start_background : t -> rate_per_s:float -> ?size:int -> unit -> unit

(** [install_faults ?trace t schedule] arms a deterministic fault schedule
    against this cloud (see {!Sw_fault.Schedule}): every window becomes an
    engine event, machines and replicas are resolved by id, and a
    [Replica_crash] with [restart_after] is restarted by resyncing from a
    live peer ({!Sw_vmm.Vmm.reintegrate} — requires [Config.replay_log];
    without it, or without a survivor, the restart silently stays down).
    Call after the relevant deployments exist. [trace] defaults to the
    cloud's {!attach_trace} sink. *)
val install_faults :
  ?trace:Sw_obs.Trace.t -> t -> Sw_fault.Schedule.t -> Sw_fault.Injector.t

(** [run t ~until] advances the simulation. *)
val run : t -> until:Sw_sim.Time.t -> unit

(** [run_span t span] advances by [span] from the current time. *)
val run_span : t -> Sw_sim.Time.t -> unit

(** {1 Checkpoint / restore}

    A quiescent cloud — between {!run} calls, never from inside an engine
    callback — serializes wholesale: timer wheels with their pending event
    closures, PRNG streams, replica groups and their pending/inbound/replay
    logs, in-flight packets, disk queues, caches, and (when sharded) the
    conductor's cross-shard inboxes. The image is produced by [Marshal]
    with closures, so it is only loadable by the {e same binary} that wrote
    it (the runtime's code digest enforces this); [Sw_ckpt.Image] wraps
    these bytes in a versioned, checksummed, atomically-written container
    and is what every tool above this layer uses.

    The checkpointed graph must contain no extensible-variant values,
    exceptions included: [Marshal] copies their constructor slots, and
    pattern matching compares slots by physical identity, so a restored
    copy would match none of its handler's cases. Packet payloads are a
    closed variant ({!Sw_net.Packet.payload}) for this reason. *)

type restore_error =
  | Incompatible_image of string
      (** The bytes were not produced by {!checkpoint} in this exact
          binary, or were truncated or corrupted past recognition. *)

val pp_restore_error : Format.formatter -> restore_error -> unit

(** [checkpoint t ~extra] captures [t] and [extra] — anything sharing state
    with the cloud, typically a workload handle whose closures capture it;
    sharing is preserved, so the restored pair is wired together exactly as
    the live one was. *)
val checkpoint : t -> extra:'a -> string

(** [restore bytes] rebuilds the pair written by {!checkpoint}. The ['a]
    is trusted from the caller's context — feed this only bytes whose
    provenance (same binary, same scenario) has been checked, e.g. via
    [Sw_ckpt.Image]'s digest and metadata. On success the restored cloud
    is fully live: the multicast group-id allocator is advanced past every
    restored group. *)
val restore : string -> (t * 'a, restore_error) result
