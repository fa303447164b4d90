(** Reliable NAK-based multicast — a stand-in for OpenPGM (RFC 3208), which
    the paper uses to replicate inbound packets and to exchange delivery-time
    proposals among the VMMs hosting a guest's replicas.

    Each member owns an {!endpoint}. Data published by one member reaches
    every other member exactly once and in per-sender order; gaps detected by
    a receiver trigger negative acknowledgements and retransmission. Optional
    heartbeats recover tail losses. *)

type endpoint

type group

(** [group network ~members ?nak_delay ?nak_retries ?heartbeat ()] declares a
    group over the given member addresses. [nak_delay] (default 200 us) is how
    long a receiver waits before NAKing a detected gap; retries of the same
    gap back off exponentially ([nak_delay * 2^(k-1)] before attempt [k]) and
    after [nak_retries] (default 5) unanswered NAKs the gap is abandoned —
    the receiver skips past it rather than stalling forever, counted in
    [net.mcast.<addr>.gaps_abandoned]. [heartbeat] (default none) enables
    periodic sender heartbeats with that period. *)
val group :
  Network.t ->
  members:Address.t list ->
  ?nak_delay:Sw_sim.Time.t ->
  ?nak_retries:int ->
  ?heartbeat:Sw_sim.Time.t ->
  unit ->
  group

(** The group's identifier (carried by every protocol packet, so owners of
    several endpoints can route incoming packets — see {!group_of_packet}). *)
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

(** [publish e ~size payload] multicasts [payload] to all other members.
    The delivered packets have [src = self] and the given payload. *)
val publish : endpoint -> size:int -> Packet.payload -> unit

(** [handle e pkt] must be called by the owner's network handler for every
    incoming multicast packet (recognisable via {!is_mcast}); non-multicast
    packets are rejected with [Invalid_argument]. *)
val handle : endpoint -> Packet.t -> unit

(** Whether a packet belongs to the multicast protocol. *)
val is_mcast : Packet.t -> bool

(** The group id of a multicast protocol packet, if it is one. *)
val group_of_packet : Packet.t -> int option

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

val partitioned : endpoint -> bool

(** Packets dropped at this endpoint by a partition window. *)
val partition_drops : endpoint -> int

(** [reserve_group_ids n] advances the global group-id allocator so every
    future group id is [> n]. Called after a checkpoint restore with the
    highest restored id: the allocator is process-global and not part of
    any marshaled graph, so a freshly started process would otherwise
    re-issue ids already taken by restored groups. *)
val reserve_group_ids : int -> unit
