(** The guest VM runtime: executes an application's actions against a branch
    counter and the guest's virtual clock.

    The VMM drives a guest by alternating [run_branches] (one scheduler slice
    of execution) with injection calls at VM-exit points ([inject],
    [deliver_due_timers]). An idle guest spins: [run_branches] always
    advances the branch counter by the full slice, so virtual time never
    stalls and replicas retire identical branch counts at each exit.

    Outgoing packets are numbered by a deterministic per-guest sequence
    counter; replicas therefore assign identical sequence numbers to
    corresponding packets, which the egress node's median release relies
    on. *)

type sinks = {
  send :
    seq:int ->
    instr:int ->
    dst:Sw_net.Address.t ->
    size:int ->
    payload:Sw_net.Packet.payload ->
    unit;
      (** Called when the guest emits a packet, [instr] branches into its
          execution. *)
  disk :
    kind:[ `Read | `Write ] ->
    bytes:int ->
    sequential:bool ->
    tag:int ->
    instr:int ->
    unit;  (** Called when the guest issues a disk request. *)
  dma : bytes:int -> tag:int -> instr:int -> unit;
      (** Called when the guest starts a DMA transfer. *)
}

type t

(** [create ~app ~vt ?pit_period ~sinks ()] builds a guest. [pit_period]
    enables periodic {!App.Tick} events on the guest's virtual clock (the
    paper's guests use a 250 Hz PIT, i.e. 4 ms). *)
val create :
  app:App.t ->
  vt:Virtual_time.t ->
  ?pit_period:Sw_sim.Time.t ->
  sinks:sinks ->
  unit ->
  t

(** Injects {!App.Boot}; call once before the first slice. *)
val boot : t -> unit

val instr : t -> int
val virt_now : t -> Sw_sim.Time.t

(** [run_branches t n] executes [n] branches' worth of guest work (compute
    actions, emitting sends/disk requests at their exact branch offsets;
    idle spinning when the action queue is empty). A compute action cut by
    the end of a slice stays at the head of the queue with its progress
    recorded in place, so the slice boundaries never change the branch
    offsets at which later actions run, and cutting one allocates
    nothing. *)
val run_branches : t -> int -> unit

(** [inject t ev] delivers an interrupt's event to the application (at a VM
    exit). Immediate resulting actions (sends, disk requests, timers) execute
    at the current branch count. *)
val inject : t -> App.event -> unit

(** Delivers every timer and PIT tick whose deadline has been reached. *)
val deliver_due_timers : t -> unit

(** Packets emitted so far. *)
val sent_packets : t -> int

(** [set_muted t true] suppresses the sinks (sends, disk, DMA requests do
    not reach the devices) while still advancing all internal state —
    including the outgoing sequence counter. Recovery replays a replica's
    logged history against a muted guest, then unmutes it. *)
val set_muted : t -> bool -> unit
