(** Full-simulation attack scenarios (paper Secs. V-B and IX; Fig. 4).

    The attacker VM receives a Poisson packet stream from an external pinger
    and observes inter-delivery times on its virtual clock; an external
    observer host receives the attacker's echoes and measures real
    inter-arrival times. A victim VM, when present, shares exactly one
    machine with the attacker and continuously serves a file (disk + NIC +
    device-model CPU load). Optionally a collaborating attacker VM shares a
    different one of the attacker's machines and generates heavy load there
    to marginalise that replica from the median (Sec. IX). *)

type spec = {
  config : Sw_vmm.Config.t;
  baseline : bool;  (** Unmodified Xen instead of StopWatch. *)
  victim : bool;
  colluder : bool;
  ping_rate_per_s : float;
  duration : Sw_sim.Time.t;
  seed : int64;
  faults : Sw_fault.Schedule.t;
      (** Deterministic fault schedule installed against the scenario's
          cloud before it runs; {!Sw_fault.Schedule.empty} (the default)
          disables injection entirely. *)
  trace : Sw_obs.Trace.t option;
      (** Cloud-wide trace sink, attached ({!Stopwatch.Cloud.attach_trace})
          before anything is deployed; [None] (the default) records
          nothing and costs one branch per would-be event. *)
  profile : Sw_obs.Profile.t option;
      (** Wall-clock self-profiling instance handed to the engine; [None]
          (the default) times nothing. *)
}

(** The runs are unsharded: attacker, victim and colluder deliberately
    share machines, so the whole testbed is one partition atom. *)
val default : spec

(** [with_replicas spec m] adjusts the attacker/victim replica count
    (Sec. IX's 3-vs-5 comparison). *)
val with_replicas : spec -> int -> spec

type result = {
  attacker_inter_delivery_ms : float array;
      (** Virtual inter-delivery times at the attacker (internal channel). *)
  observer_inter_arrival_ms : float array;
      (** Real inter-arrival times at the external observer. *)
  deliveries : int;
  divergences : int;
  median_share : float array;
      (** Fraction of deliveries whose median adopted each replica's
          proposal; replica 0 is the colluder-loaded machine, replica m-1
          the victim-shared one. Empty in baseline mode. *)
  metrics : Sw_obs.Snapshot.t;
      (** Full metrics snapshot of the scenario's cloud, for export and for
          reading further counters. *)
}

val run : spec -> result

(** {2 The probe rig}

    The attacker-side apparatus, shared with the attack placement of
    workload scenarios ([Sw_workload.Run]) so both read the channel the
    same way. *)

(** [start_pings pinger ~dst ~seed ~rate_per_s] starts the Poisson ping
    stream: [pinger] sends [dst] numbered [Probe_ping]s at exponential
    gaps drawn from a generator seeded with [seed + 17]. *)
val start_pings :
  Stopwatch.Host.t ->
  dst:Sw_net.Address.t ->
  seed:int64 ->
  rate_per_s:float ->
  unit

(** The attacker replica whose virtual clock the experiment reads: the one
    on machine [replicas - 1] (the victim-shared machine) under StopWatch,
    the single instance under [baseline]. All replicas observe identical
    virtual delivery times. *)
val observed_replica :
  Stopwatch.Cloud.deployment ->
  baseline:bool ->
  replicas:int ->
  Sw_vmm.Vmm.instance

(** Every per-(vm, mechanism) lineage observation series in a trace, keyed
    ["vm<i>/<mechanism>"] for attribution. *)
val lineage_series : Sw_obs.Trace.t -> (string * float array) list

(** [leak_series spec] runs the scenario with a trace sink attached and
    distils every leak-audit observation series, keyed for lineage
    attribution: [attacker/inter-delivery] (guest-visible gaps),
    [attacker/ping-latency] — the attacker's end-to-end ping latency
    (ingress stamp → delivery on the guest's virtual clock; the pinger is
    the attack apparatus's own agent, so send times are known to the
    attacker even though the ingress stamp is not guest-visible) — and its
    [attacker/ping-jitter] dispersion view, and
    one [vmN/<mechanism>] series per {!Sw_obs.Lineage.mechanism}. Returns
    plain data only, so results marshal across runner domains. *)
val leak_series : spec -> (string * float array) list
