(** The per-machine StopWatch VMM: hosts guest VM replicas, drives their
    slices, and implements the device models.

    Network device model (paper Sec. V-B): inbound guest packets (replicated
    by the ingress) are buffered hidden from the guest; the VMM proposes
    [last-exit virtual time + delta_n] as the delivery time, exchanges
    proposals with the peer VMMs, adopts the median, and injects the
    interrupt at the first guest-caused VM exit whose virtual time has
    reached it. Disk device model: completion interrupts are injected at
    [issue virtual time + delta_d] once the (real) transfer has finished.
    Output packets are tunnelled to the egress node, which releases each on
    its median-timed copy.

    In [Baseline] mode (unmodified Xen), packets route directly to the
    hosting machine and interrupts are injected at the first exit after a
    small emulation delay; no replication machinery runs. *)

type t

(** One hosted guest VM replica. *)
type instance

(** [create machine] registers the VMM as the network handler of the
    machine's address. *)
val create : Machine.t -> t

val machine : t -> Machine.t

(** [host ?channel t ~group ~app ~peers] starts the next replica of
    [group]'s VM on this machine. [peers] are the other replicas' VMM
    addresses (empty in baseline mode). When [channel] (the VM's PGM-style
    multicast group, shared with the peers and the ingress) is given,
    proposals and epoch reports travel over it — reliable under fabric loss,
    as the paper's OpenPGM usage provides; otherwise they go as plain
    unicast packets. The guest boots immediately at the current time. *)
val host :
  ?channel:Sw_net.Multicast.group ->
  ?start:Sw_sim.Time.t ->
  t ->
  group:Replica_group.t ->
  app:Sw_vm.App.factory ->
  peers:Sw_net.Address.t list ->
  instance

(** The registry path prefix this replica's metrics live under:
    ["vmm.<machine>.vm<vm>"] (e.g. [<prefix>.net_deliveries],
    [<prefix>.median.source.r<k>]) — for reading them back out of a
    {!Sw_obs.Snapshot.t}. *)
val metric_prefix : instance -> string

val vm : instance -> int
val replica : instance -> int
val guest : instance -> Sw_vm.Guest.t

(** Network interrupts injected into this replica. *)
val net_deliveries : instance -> int

(** Disk interrupts injected into this replica (Fig. 7(b)'s quantity). *)
val disk_interrupts : instance -> int

(** DMA-completion interrupts injected into this replica. *)
val dma_interrupts : instance -> int

(** Virtual inter-delivery times of network interrupts, in ms — the
    attacker-observable quantity of Fig. 4(a). *)
val inter_delivery_virts_ms : instance -> float array

(** Times data was not ready by its virtual disk-delivery time. *)
val delta_d_violations : instance -> int

(** [set_trace i tr] makes the replica emit typed protocol events
    ({!Sw_obs.Event.Packet_proposed}, [Median_adopted], [Packet_delivered],
    [Vm_exit], [Disk_irq]/[Dma_irq], [Divergence]) into [tr] — used by the
    Fig. 2 reproduction and by protocol tests. Emission is lazy: with no
    sink attached, or the sink disabled, nothing is allocated or formatted. *)
val set_trace : instance -> Sw_obs.Trace.t -> unit

(** [rebuild i] reconstructs the replica's guest by deterministic replay of
    its recorded history (requires [Config.replay_log]); the clone's branch
    counter, virtual clock, application state and packet numbering all match
    the live guest — the recovery mechanism of paper footnote 4. Returns the
    clone without installing it. *)
val rebuild : instance -> Sw_vm.Guest.t

(** [recover i] rebuilds and swaps the clone in as the live guest. *)
val recover : instance -> unit

(** {1 Crash and restart (fault injection / graceful degradation)} *)

(** This replica's group membership handle (liveness and quorum queries). *)
val member : instance -> Replica_group.member

(** The replica's PGM endpoint on the VM's multicast channel, when hosted
    with one — the partition hook fault injection cuts. *)
val channel_endpoint : instance -> Sw_net.Multicast.endpoint option

(** [crash i] kills the replica process: its guest stops receiving slices,
    its heartbeats stop, and packets addressed to it are dropped. The VMM
    and machine keep running (process death, not machine death). Idempotent.
    Emits {!Sw_obs.Event.Fault_replica_crash} when traced. *)
val crash : instance -> unit

val crashed : instance -> bool

(** [reintegrate i ~from] restarts a crashed replica behind a resync
    barrier: rebuilds its guest by deterministic replay of the surviving
    peer replica [from]'s history (requires [Config.replay_log]), copies
    [from]'s pending-delivery horizon, and reinstates the member in the
    group ({!Replica_group.reinstate}) — quorum grows back and the watchdog
    resumes monitoring it. In-flight DMA completions are not recoverable
    across the barrier (in-flight disk completions are). Raises unless [i]
    is crashed and [from] is a live peer replica of the same VM. *)
val reintegrate : instance -> from:instance -> unit
