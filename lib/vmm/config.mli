(** StopWatch configuration.

    The two central offsets mirror the paper (Sec. VII-A): [delta_n], the
    virtual-time offset added to a guest's last-exit virtual time to form a
    network-interrupt delivery proposal (translating to 7–12 ms of real time
    on the paper's platform), and [delta_d], the offset for disk/DMA
    interrupts (8–15 ms). *)

type epoch = {
  interval_branches : int;
      (** The paper's I: branches per resynchronisation epoch. *)
  slope_l : float;  (** Lower clamp for the adjusted slope (ns/branch). *)
  slope_u : float;  (** Upper clamp. *)
}

(** Liveness watchdog parameters (graceful degradation). *)
type watchdog = {
  timeout : Sw_sim.Time.t;
      (** A replica unheard-from for this long is suspected dead. Must
          exceed [vmm_heartbeat]. *)
  period : Sw_sim.Time.t;  (** How often the watchdog sweeps the group. *)
  retries : int;
      (** Suspicions tolerated before ejection: the replica is ejected on
          the [retries + 1]-th consecutive suspicious sweep. *)
}

type t = {
  quantum : Sw_sim.Time.t;
      (** Scheduler slice; guest-caused VM exits occur at slice ends. *)
  branches_per_ns : float;  (** Guest instruction retirement rate. *)
  slope_ns_per_branch : float;  (** Initial virtual-clock slope. *)
  delta_n : Sw_sim.Time.t;  (** Network-interrupt virtual offset. *)
  delta_d : Sw_sim.Time.t;  (** Disk/DMA-interrupt virtual offset. *)
  skew_bound : Sw_sim.Time.t;
      (** Max allowed virtual-time lead of the fastest replica over the
          second fastest; the fastest is descheduled beyond this. *)
  pit_period : Sw_sim.Time.t option;  (** Guest PIT tick (250 Hz = 4 ms). *)
  epoch : epoch option;  (** Virtual-time resync; [None] free-runs. *)
  replicas : int;  (** Replicas per guest VM (odd; the paper uses 3). *)
  dom0_per_packet : Sw_sim.Time.t;
      (** Device-model CPU cost a machine pays per packet in or out, and per
          disk request/completion. QEMU's emulated RTL-8139 path costs tens
          of microseconds per packet; the default is 50 us. *)
  baseline_inject_delay : Sw_sim.Time.t;
      (** Emulation latency for interrupt delivery on unmodified Xen. *)
  proposal_size : int;  (** Wire size of proposal / epoch messages. *)
  mcast_nak_delay : Sw_sim.Time.t;
      (** Receiver NAK delay of the PGM-style multicast used for inbound
          replication and VMM coordination. *)
  mcast_nak_retries : int;
      (** NAK re-sends (exponential backoff) before a receiver abandons a
          gap instead of stalling; default 5. *)
  mcast_heartbeat : Sw_sim.Time.t option;
      (** Sender heartbeat period enabling tail-loss recovery; [None] (the
          default) suits a lossless fabric. *)
  nic_bps : int;  (** Machine NIC serialisation rate. *)
  dma_bps : int;  (** DMA engine transfer rate (one engine per machine). *)
  replay_log : bool;
      (** Record each replica's execution history (slices, injections, clock
          re-parameterisations) so a diverged replica can be rebuilt by
          deterministic replay ({!Vmm.rebuild}; paper footnote 4). Off by
          default: the log grows with the run. *)
  disk : Sw_disk.Disk.params;
  vmm_heartbeat : Sw_sim.Time.t option;
      (** Period of per-replica liveness heartbeats multicast to the group.
          Scheduled by the hosting VMM independently of guest execution, so
          an epoch-blocked (but live) replica keeps heartbeating. [None]
          (the default) disables them. *)
  watchdog : watchdog option;
      (** Liveness watchdog ejecting unresponsive replicas so the group
          degrades to a smaller odd quorum instead of wedging. Requires
          [vmm_heartbeat]. [None] (the default) disables it. *)
  egress_vote_expiry : Sw_sim.Time.t option;
      (** Retire incomplete egress vote entries this long after their median
          copy released (bounds egress memory under tunnel loss); [None]
          (the default) keeps entries until all copies arrive. *)
}

(** Slice length in branches ([quantum * branches_per_ns]). *)
val slice_branches : t -> int

val default : t

(** [validate t] checks invariants (odd replicas, positive quantum, ...);
    raises [Invalid_argument] with a reason. *)
val validate : t -> unit
