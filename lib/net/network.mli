(** The simulated network fabric.

    Nodes register a delivery handler for their address; [send] routes a
    packet to the handler of its (possibly rerouted) destination after a
    per-link serialisation + propagation delay. Per-(src, dst) packet
    counters support the packets-per-operation measurements of Fig. 6(b). *)

type link_params = {
  latency : Sw_sim.Time.t;  (** Propagation delay. *)
  jitter : Sw_sim.Time.t;  (** Uniform extra delay in [[0, jitter]]. *)
  bandwidth_bps : int;  (** Serialisation rate; [0] means infinite. *)
  loss : float;  (** Per-packet drop probability in [[0, 1)]. *)
}

val lan : link_params
(** 100 us latency, 20 us jitter, 1 Gb/s, no loss — cloud-internal default. *)

val wan : link_params
(** 2 ms latency, 300 us jitter, 100 Mb/s, no loss — client access link. *)

type t

(** [create ?stream_seed engine ~default] builds a fabric on [engine].

    Without [stream_seed] (the legacy mode), loss and jitter draw from one
    generator shared by every link, in global delivery order — fine for a
    single engine, where that order is itself deterministic. With
    [stream_seed] (sharded runs), each directed (src, dst) pair draws from
    its own stream derived from [(stream_seed, src, dst)]
    ({!Sw_sim.Prng.derive}): the draw order seen by any one link depends
    only on that link's own traffic, so the draws are independent of how
    machines are partitioned into shards. *)
val create : ?stream_seed:int64 -> Sw_sim.Engine.t -> default:link_params -> t

val engine : t -> Sw_sim.Engine.t

(** Deterministic per-network sequence numbers for infrastructure senders.
    Guests must instead number packets from their own deterministic state. *)
val fresh_seq : t -> int

(** [register t addr handler] sets the delivery handler; re-registering
    replaces it. *)
val register : t -> Address.t -> (Packet.t -> unit) -> unit

(** [set_route t ~dst ~via] delivers packets addressed to [dst] to [via]'s
    handler instead (e.g. [Vm v] routed via [Ingress]). The packet's [dst]
    field is left untouched. *)
val set_route : t -> dst:Address.t -> via:Address.t -> unit

(** [set_link t ~src ~dst params] overrides the parameters of the directed
    link [src -> dst]. *)
val set_link : t -> src:Address.t -> dst:Address.t -> link_params -> unit

(** [set_node_link t addr params] sets the default for any link touching
    [addr] (e.g. a client host's access link). Exact pair overrides from
    {!set_link} take precedence; the delivery target's node override beats
    the source's. *)
val set_node_link : t -> Address.t -> link_params -> unit

(** A fault-injection perturbation applied on top of a link's own
    parameters: an independent extra drop probability and additional
    propagation delay. Installed/cleared at simulated instants by the
    [sw_fault] injector; with no disturbance installed the delivery path is
    bit-identical to a fault-free build (no extra RNG draws). *)
type disturbance = { extra_loss : float; extra_latency : Sw_sim.Time.t }

(** [combine_disturbance a b] stacks two disturbances: losses compose as
    independent drops, latencies add. *)
val combine_disturbance : disturbance -> disturbance -> disturbance

(** [set_fault_all t d] installs (or with [None] clears) a fabric-wide
    disturbance affecting every delivery. *)
val set_fault_all : t -> disturbance option -> unit

(** [set_fault_to t addr d] installs (or clears) a disturbance on every
    delivery whose effective target is [addr] — e.g. [Address.Egress] to
    model output-tunnel drops, or a VMM address to degrade one machine's
    inbound connectivity. Composes with the fabric-wide disturbance. *)
val set_fault_to : t -> Address.t -> disturbance option -> unit

(** [set_remote t ~shard ~locate ~post] marks this network as shard
    [shard] of a partitioned cloud. [locate a] names the shard owning
    delivery target [a] (per-shard addresses — Ingress, Egress — must map
    to [shard] on every network). When a delivery's effective target is
    owned by another shard, the sending network still computes the arrival
    instant exactly as for a local delivery — same link state, same FIFO,
    same loss/jitter draws — and then hands [(dst shard, arrival, target,
    packet)] to [post] (the conductor mailbox) instead of scheduling
    locally. *)
val set_remote :
  t ->
  shard:int ->
  locate:(Address.t -> int) ->
  post:(dst:int -> at:Sw_sim.Time.t -> target:Address.t -> Packet.t -> unit) ->
  unit

(** [inject t ~target pkt] delivers [pkt] to [target]'s handler at the
    current instant, with delivery-side accounting ([net.delivered], the
    pair counter) — the receiving half of a cross-shard hop, called inside
    the conductor-injected event at the precomputed arrival time. Targets
    without a handler count as undeliverable. *)
val inject : t -> target:Address.t -> Packet.t -> unit

(** [min_latency_to t ~locate ~self ~shards]: element [d] is the smallest
    propagation latency, over the default and every installed override,
    that any hop from this network (shard [self]) into shard [d] could
    see, i.e. this network's row of a conductor's lookahead matrix.
    Overrides whose delivery target locates to [self] are intra-shard and
    excluded (a node override on one of [self]'s own nodes still applies
    source-side, to every destination); element [self] is the plain
    default. *)
val min_latency_to :
  t -> locate:(Address.t -> int) -> self:int -> shards:int -> Sw_sim.Time.t array

(** [send t pkt] delivers [pkt] (unless lost) after the link delay. Packets
    to {!Address.Broadcast_addr} go to every registered handler except the
    sender's, in ascending {!Address.index} of the handler's address (not
    {!Address.compare} order, not registration order): that order fixes
    the link-state updates, PRNG draws and event order of the copies.
    Packets whose effective destination has no handler are counted as
    undeliverable and dropped. *)
val send : t -> Packet.t -> unit

(** [pair_metric ~src ~dst] is the registry path the pair's delivered-packet
    counter lives under ([net.link.<src>.<dst>.delivered]), for reading the
    same count out of a metrics snapshot. *)
val pair_metric : src:Address.t -> dst:Address.t -> string
