(** Fault primitives — the disturbances a {!Schedule} composes.

    Each primitive maps onto a small hook in the layer that produces the
    behaviour: link disturbances onto {!Sw_net.Network.set_fault_all} /
    [set_fault_to], partitions onto {!Sw_net.Multicast.set_partitioned},
    machine disturbances onto {!Sw_vmm.Machine.stall} / [set_slowdown] /
    [pause_dom0], and crashes onto {!Sw_vmm.Vmm.crash} / [reintegrate]. *)

(** The address a link disturbance is aimed at: deliveries to the
    client-facing {!Sw_net.Address.Ingress} or {!Sw_net.Address.Egress}. *)
type target = Ingress | Egress

type t =
  | Link_loss of { target : target option; p : float }
      (** Extra independent drop probability on deliveries — fabric-wide
          ([None]) or only for deliveries targeting one address. *)
  | Link_latency of { target : target option; extra : Sw_sim.Time.t }
      (** Extra propagation delay (latency spike), same targeting. *)
  | Mcast_partition of { vm : int; replica : int }
      (** Cut the replica's PGM endpoint off its group both ways; NAK
          recovery repairs the backlog when the window closes. *)
  | Machine_stall of { machine : int }
      (** Freeze the machine (guest slices, Dom0, NIC, DMA) for the
          window. *)
  | Machine_slowdown of { machine : int; factor : float }
      (** Stretch the machine's guest slices by [factor >= 1] for the
          window; overlapping windows multiply. *)
  | Dom0_pause of { machine : int }
      (** Pause only the machine's Dom0 device-model thread for the
          window. *)
  | Replica_crash of {
      vm : int;
      replica : int;
      restart_after : Sw_sim.Time.t option;
    }
      (** Kill the replica process at the window start; with
          [restart_after], restart and reintegrate it that long after the
          crash (requires [Config.replay_log]). The window span is
          irrelevant. *)

(** Drops on the client → ingress path ([Link_loss] targeting
    {!Sw_net.Address.Ingress}). *)
val ingress_drop : p:float -> t

(** Drops on the replica → egress tunnels ([Link_loss] targeting
    {!Sw_net.Address.Egress}). *)
val egress_drop : p:float -> t

(** Short kind tag for events and reports (e.g. ["link-loss"]). *)
val label : t -> string

(** Rendered target description (e.g. ["net:egress"], ["vm0/r2"],
    ["machine:3"]). *)
val target_string : t -> string

(** Raises [Invalid_argument] on out-of-range parameters. *)
val validate : t -> unit
