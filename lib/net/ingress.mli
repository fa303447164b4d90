(** The ingress node (paper Sec. V): replicates every packet destined to a
    guest VM to all machines hosting that VM's replicas, stamping a shared
    [ingress_seq] so the VMMs can match delivery-time proposals. Counts
    [net.ingress.replicated] and, for VMs it does not know,
    [net.ingress.dropped]. *)

type t

(** Creates the node and registers it at {!Address.Ingress}. *)
val create : Network.t -> t

(** [register_vm t ~vm ~channel ~replicas] routes [Address.Vm vm] via the
    ingress and replicates its inbound traffic over [channel], the VM's
    PGM-style multicast group whose members are the ingress and the replica
    VMMs, as the paper's OpenPGM-based replication does. [replicas] (>= 1)
    is the number of live replicas, reported as the [copies] of each
    {!Sw_obs.Event.Ingress_replicated}, the root of a packet's causal chain,
    which the ingress emits through its engine's trace. *)
val register_vm :
  t -> vm:int -> channel:Multicast.group -> replicas:int -> unit

(** [set_replicas t ~vm ~replicas] updates the live-replica count when the
    VM's replica group ejects or reintegrates a member. Copies keep flowing
    group-wide; only the traced count changes. *)
val set_replicas : t -> vm:int -> replicas:int -> unit
