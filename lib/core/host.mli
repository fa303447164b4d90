(** External hosts: clients and observers outside the cloud.

    A host has its own network address and an event handler; unlike guests it
    sees real (simulated) time directly — it is the "external observer" of
    the paper's Sec. VI. *)

type t

(** [create network ~id ~link] registers the host. [link] configures its
    access link in both directions. The handler is installed with
    {!set_handler} (hosts usually need a reference to themselves to
    reply). *)
val create : Sw_net.Network.t -> id:int -> link:Sw_net.Network.link_params -> t

val address : t -> Sw_net.Address.t

(** Current real (simulated) time — what an external observer's clock
    reads. *)
val now : t -> Sw_sim.Time.t

val set_handler : t -> (Sw_net.Packet.t -> unit) -> unit

(** [send t ~dst ~size payload] emits a packet from this host. *)
val send : t -> dst:Sw_net.Address.t -> size:int -> Sw_net.Packet.payload -> unit

(** [after t span f] schedules [f] on the host (e.g. timeouts, open-loop
    load generation). *)
val after : t -> Sw_sim.Time.t -> (unit -> unit) -> unit

(** [record_inter_arrival t] makes [t] keep every real gap between the
    packets that arrive from now on; hosts keep none unless asked. *)
val record_inter_arrival : t -> unit

(** Real inter-arrival times (ms) of packets at this host — the external
    observer's measurements. Raises [Invalid_argument] unless
    {!record_inter_arrival} was called on [t]. *)
val inter_arrival_ms : t -> float array
