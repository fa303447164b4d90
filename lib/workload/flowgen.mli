(** The open-loop traffic engine: drives an {!Arrival} process of requests
    from an external host into a front-service VM over a pool of keep-alive
    TCP connections.

    Open loop means arrivals never wait for responses: the offered rate is
    what the scenario says, regardless of how the service keeps up —
    backlog and latency inflation are the measurement, not an accident.

    Connections are multiplexed round-robin from a fixed pool; a
    connection that has carried [max_per_conn] requests is retired once
    its in-flight responses drain, and a fresh one takes its slot
    (connection churn is itself part of realistic traffic). Requests carry
    a Zipf-drawn key and a weight-drawn service class.

    Per-flow measurements land in the simulation's {!Sw_obs.Registry}
    under [workload.*] — response-time histograms on the shared
    {!Sw_obs.Buckets} ladder (total, hit-only, miss-only, and per class),
    issue/completion/hit/miss counters, per-tier hit counters, a
    connection-churn counter, and an in-flight watermark gauge — so runner
    merging, JSON export, lineage, and Chrome export all work unchanged.

    Determinism: all randomness comes from the supplied generator, drawn
    only inside the (totally ordered) arrival chain, so equal
    [(config, seed)] pairs produce byte-identical metric snapshots under
    any [-j] level. *)

type cls = {
  name : string;  (** Metric label ([workload.cls.<name>.response_ns]). *)
  weight : float;  (** Relative draw weight; need not be normalised. *)
  resp_bytes : int;
  cached : bool;  (** Route through the server's front cache? *)
}

type config = {
  arrival : Arrival.t;
  classes : cls list;
  keyspace : Keyspace.t;
  pool : int;  (** Keep-alive connections (>= 1). *)
  max_per_conn : int;  (** Requests per connection before churn; 0 = never. *)
  request_bytes : int;  (** Request wire size. *)
  until : Sw_sim.Time.t;  (** Stop offering load at this instant. *)
}

type t

(** [launch ?prefix ~host ~dst ~registry ~rng config] attaches a TCP
    adapter to [host], registers the [<prefix>.*] instruments (default
    prefix ["workload"]), and schedules the first arrival; the run itself
    happens when the caller advances the simulation. The engine owns [rng]
    from here on. Multi-cell runs give every cell its own prefix (e.g.
    ["workload.cell3"]) so per-cell gauges and histograms keep distinct
    names — a requirement for partition-independent snapshot merges, since
    same-named gauges merge by max across shard registries. *)
val launch :
  ?prefix:string ->
  host:Stopwatch.Host.t ->
  dst:Sw_net.Address.t ->
  registry:Sw_obs.Registry.t ->
  rng:Sw_sim.Prng.t ->
  config ->
  t

val issued : t -> int
val completed : t -> int

(** Responses whose tier was [>= 0] / [-1] (see {!Sw_net.Msg.Wl_resp}). *)
val hits : t -> int

val misses : t -> int
