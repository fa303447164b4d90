(** Reliable NAK-based multicast — a stand-in for OpenPGM (RFC 3208), which
    the paper uses to replicate inbound packets and to exchange delivery-time
    proposals among the VMMs hosting a guest's replicas.

    Each member owns an {!endpoint}. Data published by one member reaches
    every other member exactly once and in per-sender order; gaps detected by
    a receiver trigger negative acknowledgements and retransmission. Optional
    heartbeats recover tail losses.

    A sender keeps a bounded transmit window, as PGM does. Every
    [Mcast_data] carries its publisher's receive horizon (the next mseq it
    expects from each member), and a sender drops a packet from its
    window once every peer has reported a horizon past it. A NAK asks from
    the receiver's next expected mseq, which only moves forward, so no
    dropped packet can be asked for again. A member that is crashed,
    partitioned off or silent keeps its last report, which holds the
    window open longer; the window only shrinks on what peers reported. *)

type endpoint

type group

(** [group network ~id ~members ?nak_delay ?heartbeat ()] declares group [id]
    over the given member addresses. [id] must differ from the id of every
    other group on [network] (a StopWatch cloud uses the VM id: each VM has
    one group). [nak_delay] (default 200 us) is how long a
    receiver waits before NAKing a detected gap; retries of the same gap
    back off exponentially ([nak_delay * 2^(k-1)] before attempt [k]) and
    after 5 unanswered NAKs the gap is abandoned — the receiver skips past
    it rather than stalling forever, counted in
    [net.mcast.<addr>.gaps_abandoned]. [heartbeat] (default none) enables
    periodic sender heartbeats with that period. *)
val group :
  Network.t ->
  id:int ->
  members:Address.t list ->
  ?nak_delay:Sw_sim.Time.t ->
  ?heartbeat:Sw_sim.Time.t ->
  unit ->
  group

(** The group's identifier, carried as [group] by every protocol packet
    ([Mcast_data], [Mcast_nak], [Mcast_heartbeat]) so owners of several
    endpoints can route incoming packets. *)
val group_id : group -> int

(** [endpoint g ~self ?transmit ~deliver ()] creates the member endpoint for
    address [self] (which must be in the group's member list). [deliver] is
    invoked for each published payload, in per-sender order. [transmit]
    overrides how protocol packets enter the network (default
    [Network.send]); a VMM passes its machine's NIC-transmit so multicast
    traffic pays the same serialisation as everything else. *)
val endpoint :
  group ->
  self:Address.t ->
  ?transmit:(Packet.t -> unit) ->
  deliver:(Packet.t -> unit) ->
  unit ->
  endpoint

(** [publish e ~size payload] multicasts [payload] to all other members,
    with [e]'s receive horizon attached, and keeps one copy in [e]'s
    transmit window for NAKs. The delivered packets have [src = self] and
    the given payload; [size] is the wire size, horizon included. *)
val publish : endpoint -> size:int -> Packet.payload -> unit

(** [handle e pkt] must be called by the owner's network handler for every
    incoming multicast protocol packet ([Mcast_data], [Mcast_nak],
    [Mcast_heartbeat]) of [e]'s group. One of another group, and data or a
    heartbeat from a non-member, is ignored; any other payload is rejected
    with [Invalid_argument]. *)
val handle : endpoint -> Packet.t -> unit

(** Number of retransmissions this endpoint has served (test observability). *)
val retransmissions : endpoint -> int

(** Number of gaps this endpoint has abandoned after exhausting NAK retries. *)
val gaps_abandoned : endpoint -> int

(** [set_partitioned e on] cuts the endpoint off from the group (fault
    injection): while set, every outgoing protocol packet and every incoming
    [handle]d packet is dropped and counted in
    [net.mcast.<addr>.partition_drops]. NAK recovery repairs the backlog once
    the partition heals (tail losses need the group heartbeat). *)
val set_partitioned : endpoint -> bool -> unit

(** Packets dropped at this endpoint by a partition window. *)
val partition_drops : endpoint -> int
