(** Network addresses of the simulated cloud's participants. *)

type t =
  | Vm of int  (** A guest VM, by logical VM id (shared by its replicas). *)
  | Vmm of int  (** The VMM / device models on a physical machine. *)
  | Host of int  (** An external host (client, observer). *)
  | Ingress  (** The ingress node replicating inbound guest traffic. *)
  | Egress  (** The egress node enforcing median output timing. *)
  | Broadcast_addr  (** Subnet broadcast (e.g. ARP background noise). *)

(** [index a] is [a]'s integer identity: the id shifted left by three with
    the constructor tag in the low bits ([Vm] 1, [Vmm] 2, [Host] 3), or 4, 5
    and 6 for [Ingress], [Egress] and [Broadcast_addr]. Distinct addresses
    with non-negative ids have distinct indexes. Address-keyed tables
    ({!Sw_sim.Int_tbl}) key on it, and keyed per-link PRNG streams derive
    from it, so changing it would change every sharded run's draws. *)
val index : t -> int

val equal : t -> t -> bool

(** [compare] orders as [Stdlib.compare] does: [Ingress < Egress <
    Broadcast_addr < Vm _ < Vmm _ < Host _], ids ascending within a
    constructor. It is a monomorphic match, as is {!equal}. *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
