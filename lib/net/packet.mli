(** Network packets.

    The payload is a closed variant: the infrastructure cases (replication,
    multicast, liveness) are declared here and every application message is
    an {!Msg.t}, carried directly ([App]) or in a TCP segment ([Tcp]).
    Payloads must be immutable values so that replicated copies stay
    identical. *)

type t = {
  src : Address.t;
  dst : Address.t;
  size : int;  (** Wire size in bytes, headers included. *)
  seq : int;  (** Per-sender sequence number (see {!val-seq}). *)
  payload : payload;
}

and payload =
  | Empty
  | Guest_bound of { vm : int; ingress_seq : int; inner : t }
      (** An inbound guest packet, replicated by the ingress to each replica's
          VMM. [ingress_seq] identifies the packet consistently across the
          copies so the VMMs can match proposals. *)
  | Proposal of { vm : int; ingress_seq : int; proposer : int; virt : Sw_sim.Time.t }
      (** A VMM's proposed virtual delivery time for an inbound packet. *)
  | Egress_tunnel of { vm : int; replica : int; inner : t }
      (** A guest output packet tunnelled to the egress node. *)
  | Epoch_report of { vm : int; replica : int; epoch : int; d : Sw_sim.Time.t; r : Sw_sim.Time.t }
      (** Per-epoch (duration, real time) report for virtual-time resync. *)
  | Background of int  (** Subnet broadcast noise (ARP-like). *)
  | Mcast_data of { group : int; mseq : int; inner : payload }
      (** A payload published on a {!Multicast} group. *)
  | Mcast_nak of { group : int; origin : Address.t; from_mseq : int; to_mseq : int }
  | Mcast_heartbeat of { group : int; last_mseq : int }
  | Vmm_alive of { vm : int; replica : int }
      (** A VMM's liveness heartbeat to its replica group: the watchdog tells
          a dead replica from an epoch-blocked one by these, since a blocked
          guest stops exiting but its VMM keeps beating. *)
  | Tcp of Msg.seg
  | App of Msg.t  (** An application datagram. *)

(** [make ~src ~dst ~size ~seq payload]. [size] must be positive. *)
val make : src:Address.t -> dst:Address.t -> size:int -> seq:int -> payload -> t

val pp : Format.formatter -> t -> unit
