(** A physical machine: many-core CPU (each uniprocessor guest gets its own
    core, as on the paper's 16-core testbed machines), an outbound NIC with
    FIFO serialisation, a disk, and a single Dom0 device-model thread that
    serves all residents' I/O work FIFO.

    The Dom0 serialisation and the NIC/disk queues are what make coresident
    VMs' observable timings interdependent — the raw material of the
    access-driven timing channel StopWatch defends against. *)

type t

type resident = {
  name : string;  (** For diagnostics. *)
  runnable : unit -> bool;
      (** Polled when the scheduler picks the next slice's owner. *)
  on_slice_end : unit -> unit;
      (** Invoked at the end of each of this resident's slices (the
          guest-caused VM exit point). *)
}

(** [create engine network ~id ~config ?rate_multiplier ?clock_offset ()]:
    [rate_multiplier] scales this machine's execution speed (guest slices
    still retire [Config.slice_branches] branches — the guest-deterministic
    VM-exit grid — but take [quantum / rate_multiplier] of wall time, so
    replicas on machines of different speeds skew in real time exactly as on
    heterogeneous hardware). [clock_offset] models the machine's real-time
    clock error (NTP-scale); it offsets {!local_time}. *)
val create :
  Sw_sim.Engine.t ->
  Sw_net.Network.t ->
  id:int ->
  config:Config.t ->
  ?rate_multiplier:float ->
  ?clock_offset:Sw_sim.Time.t ->
  unit ->
  t

val id : t -> int
val config : t -> Config.t

(** This machine's reading of real time (engine time plus its clock error) —
    what its VMM reports in epoch messages and start negotiation. *)
val local_time : t -> Sw_sim.Time.t
val address : t -> Sw_net.Address.t
val engine : t -> Sw_sim.Engine.t
val network : t -> Sw_net.Network.t
val disk : t -> Sw_disk.Disk.t

(** [attach t r] adds a scheduling client. *)
val attach : t -> resident -> unit

(** [wake t] restarts the slice loop of any parked resident that has become
    runnable — call after any state change that may unblock one. *)
val wake : t -> unit

(** [dom0_execute t ~cost k] enqueues device-model work on the Dom0 thread;
    [k] runs when the work completes (FIFO behind earlier work). *)
val dom0_execute : t -> cost:Sw_sim.Time.t -> (unit -> unit) -> unit

(** [dom0_work t span] charges Dom0 time with no completion action. *)
val dom0_work : t -> Sw_sim.Time.t -> unit

(** [transmit t pkt] runs the send-path device model on Dom0, then
    serialises the packet out of the NIC FIFO. *)
val transmit : t -> Sw_net.Packet.t -> unit

(** [dma_execute t ~bytes k] queues a transfer on the machine's DMA engine
    (FIFO, [dma_bps]); [k] runs at completion. Coresident VMs' transfers
    queue behind each other, like the disk. *)
val dma_execute : t -> bytes:int -> (unit -> unit) -> unit

(** Guest slices granted so far. *)
val slices : t -> int

(** Total Dom0 CPU time consumed. *)
val dom0_time : t -> Sw_sim.Time.t

(** {1 Fault-injection hooks}

    Used by the [sw_fault] injector to model machine-level disturbances;
    all default to the identity and cost nothing when unused. *)

(** [stall t ~until] freezes the machine — new guest slices, Dom0 work, NIC
    serialisation and DMA transfers all start no earlier than [until].
    Slices already in flight still complete at their scheduled instant.
    Monotone: never shortens an existing stall. *)
val stall : t -> until:Sw_sim.Time.t -> unit

(** [pause_dom0 t ~until] pauses only the Dom0 device-model thread — guests
    keep executing, but packet/disk processing queues behind the pause. *)
val pause_dom0 : t -> until:Sw_sim.Time.t -> unit

(** [set_slowdown t f] stretches subsequent guest slices to [f * quantum]
    of wall time ([f >= 1]; [1.0] restores full speed). Branches retired per
    slice are unchanged, so guest-visible determinism is preserved — the
    machine merely takes longer, exactly like a contended host. *)
val set_slowdown : t -> float -> unit

val slowdown : t -> float
