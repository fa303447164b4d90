(** Compile-and-run driver for [kind = "workload"] scenarios.

    Builds the cloud described by a {!Dsl.workload} — StopWatch replicas or
    an unmodified-Xen baseline, the {!Kv} front service, the {!Flowgen}
    open-loop client, optional co-resident attack probe, fault schedule,
    leak-audit tracing — advances the simulation for the
    scenario's duration plus a fixed drain window, and distils the
    [workload.*] metrics into a result record.

    Deterministic: every generator is seeded from [w.seed] alone, so equal
    workload values produce byte-identical results (the property the runner
    relies on to shard load-multiplier sweeps across [-j N] domains). *)

type result = {
  issued : int;  (** Requests offered by the open-loop client. *)
  completed : int;  (** Responses received before the drain window closed. *)
  hits : int;
  misses : int;
  p50_ms : float;  (** Response-time quantiles read off the bucket ladder. *)
  p99_ms : float;
  attacker_inter_delivery_ms : float array;
      (** Virtual inter-delivery times at the co-resident probe; empty
          without an [attack] clause. *)
  leak_series : (string * float array) list;
      (** Leak-observation series recorded under [leak_audit]: the probe's
          ["attacker/inter-delivery"] series plus one
          ["vm<i>/<mechanism>"] series per lineage observation — the input
          an [Sw_leak.Audit] pairs across two configurations. Empty unless
          the scenario set [leak_audit]. *)
  metrics : Sw_obs.Snapshot.t;
  fired : int;
      (** Engine events fired across all shards — the numerator of the
          events/s throughput the shard-scale bench reports. *)
  cross_shard : int;  (** Messages exchanged at shard barriers; 0 unsharded. *)
}

(** A built-but-not-yet-run scenario: the cloud with all guests, clients,
    probes, and fault schedules installed, the time the load (plus drain)
    ends, and a [finish] thunk that distils the result once the simulation
    has been advanced to [until]. The handle is exactly what a checkpoint
    captures: [Cloud.checkpoint cloud ~extra:handle] serializes the pair
    with their sharing intact ([finish]'s environment closes over the
    cloud), so a restored handle's [finish] reads the restored cloud. The
    soak driver ([Sw_ckpt.Soak]) runs handles in checkpointed slices;
    {!run} is the one-shot form. *)
type handle = {
  cloud : Stopwatch.Cloud.t;
  until : Sw_sim.Time.t;  (** Scenario duration plus the drain window. *)
  finish : unit -> result;  (** Call once the cloud has reached [until]. *)
  observe : unit -> (string * float array) list;
      (** Snapshot the leak-observation series accumulated so far; safe
          mid-run (the soak driver calls it at every checkpoint grid
          point). Empty unless the scenario set [leak_audit]. *)
}

(** The cell-level communication graph of the scenario's topology block:
    one node per service cell, one edge per east-west flow (weight = its
    arrival rate). The input {!Sw_placement.Affinity.partition} consumes,
    and the graph the bench prices contiguous-vs-affinity cuts against. A
    scenario without a topology block yields the trivial 1-cell graph. *)
val traffic_graph : Dsl.workload -> Sw_placement.Affinity.graph

(** [prepare ?shards ?partition w] builds the scenario without
    advancing it; see {!run} for the scenario semantics and {!handle} for
    what to do next. [?shards] overrides the topology block's shard count
    from the command line, [?partition] likewise overrides the block's
    cell placement ([`Assign a] additionally accepts an arbitrary explicit
    cell-to-shard map, the hook the partition-independence property test
    drives with random maps). Both go through {!Dsl.override}; raises
    [Invalid_argument] when it rejects the (possibly overridden) workload
    or an [`Assign] map is malformed. *)
val prepare :
  ?shards:int ->
  ?partition:[ `Contiguous | `Affinity | `Assign of int array ] ->
  Dsl.workload ->
  handle

(** Runs the scenario. Without a [topology] block this is the single-cell
    path above. With one, the cloud is [topology.hosts] machines carved
    into [hosts/replicas] service cells (each its own replica group, KV
    server, client host, and optional east-west flow toward the cell
    [east_west_stride] further on), simulated over [topology.shards]
    conservative shards. The conductor bounds each shard pair by its own
    latency floor ({!Stopwatch.Cloud.create}). The scenario is zero-draw
    (no jitter, no loss, no disk seek) and every generator is key-derived,
    so the result is byte-identical across shard counts and partitions
    (see {!prepare}) outside the [sim.*] metric namespace. Raises
    [Invalid_argument] when {!Dsl.override} rejects the workload. *)
val run : Dsl.workload -> result

(** [map_variants ?pool f variants] runs [f] over keyed variants as
    independent runner jobs (sharded over [pool] when given), keeping the
    keys and their order; any worker count gives the same results. *)
val map_variants :
  ?pool:Sw_runner.Pool.t -> ('a -> 'b) -> (string * 'a) list -> (string * 'b) list

(** The scenario's leak audits, the pairing of the paper's Fig. 4
    experiment (Sec. V-B). Attack scenarios: within each backend (and
    colluder) group, the victim run (alt) against the no-victim run
    (null), labelled ["stopwatch"], ["baseline"], ["...+colluder"] in
    first-appearance order. Workload scenarios: StopWatch off (alt)
    against on (null) with [leak_audit] forced on, labelled
    ["stopwatch-off vs stopwatch-on"]. Series pair by key
    ({!Sw_leak.Audit.pair}); [registry] receives the detector counters.
    Empty when no group has both sides. [Error] (a {!Dsl.override}
    field-path message, before anything runs) when the workload with
    [leak_audit] on is invalid: a sharded topology does not trace. *)
val audits :
  ?pool:Sw_runner.Pool.t ->
  registry:Sw_obs.Registry.t ->
  Dsl.t ->
  (Sw_leak.Audit.t list, string) Stdlib.result
