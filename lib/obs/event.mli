(** Structured trace events.

    Each event is a typed variant carrying the identifying fields of the
    protocol step it records; nothing is formatted at emission time.
    Rendering happens only when a consumer prints the event (e.g. the Fig. 2
    protocol trace), so emitting into a disabled {!Trace} costs a branch and
    no allocation at well-written call sites (guard with {!Trace.active}
    before constructing the payload). Timestamps and branch counts are
    immediate [int]s — nanoseconds are the representation of
    [Sw_sim.Time.t] — so a payload holds no boxed numbers. *)

type divergence_kind =
  | Late_median  (** The adopted median was already in this replica's past. *)
  | Delta_d_violation  (** A disk/DMA transfer missed its [virt + Δd] slot. *)

type t =
  | Packet_proposed of {
      vm : int;
      observer : int;  (** Replica at which the proposal was recorded. *)
      proposer : int;
      ingress_seq : int;
      virt_ns : int;
    }
  | Median_adopted of {
      vm : int;
      replica : int;
      ingress_seq : int;
      virt_ns : int;
      proposals : (int * int) list;  (** (proposer, proposed virt). *)
    }
  | Packet_delivered of { vm : int; replica : int; seq : int; virt_ns : int }
  | Ingress_replicated of { vm : int; ingress_seq : int; copies : int; size : int }
      (** The ingress stamped an inbound guest packet with [ingress_seq] and
          replicated it toward the VM's [copies] replica VMMs. The root of a
          delivery lineage chain. *)
  | Egress_released of { vm : int; seq : int; rank : int; copies : int }
      (** The egress forwarded the guest packet with sequence [seq] on the
          arrival of its [rank]-th copy (the median output timing) out of
          [copies] voters. *)
  | Divergence of { vm : int; replica : int; kind : divergence_kind }
  | Vm_exit of {
      vm : int;
      replica : int;
      machine : int;
      virt_ns : int;
      instr : int;
    }
  | Disk_irq of { vm : int; replica : int; tag : int; virt_ns : int }
  | Dma_irq of { vm : int; replica : int; tag : int; virt_ns : int }
  | Fault_injected of { fault : string; target : string; span_ns : int }
      (** An injected fault window opened ([fault] is the primitive's kind
          tag, [target] a rendered link/machine/replica description). *)
  | Fault_cleared of { fault : string; target : string }
  | Fault_replica_crash of { vm : int; replica : int }
  | Fault_replica_restart of { vm : int; replica : int }
  | Degrade_suspected of { vm : int; replica : int; attempt : int }
      (** The watchdog missed this replica's heartbeats for a timeout window
          ([attempt] counts the bounded retries before ejection). *)
  | Degrade_ejected of { vm : int; replica : int; quorum : int }
      (** The replica was ejected; the group now runs on [quorum] members. *)
  | Degrade_reintegrated of { vm : int; replica : int; quorum : int }
      (** A restarted replica resynced and rejoined; quorum restored. *)
  | Span_begin of { name : string }
  | Span_end of { name : string; elapsed_ns : int }

(** Short kind tag, e.g. ["proposal"], ["median"], ["vm-exit"]. *)
val label : t -> string

(** The guest VM an event concerns, when it concerns exactly one — [None]
    for fabric-wide and bookkeeping events (fault windows, spans,
    messages). *)
val vm_of : t -> int option

(** The replica an event was recorded at ([observer] for proposals); [None]
    for events that happen off the replicas (ingress, egress, faults,
    spans). *)
val replica_of : t -> int option

(** Adaptive-unit nanosecond printer (["1.500ms"]), for rendering. *)
val pp_ns : Format.formatter -> int -> unit

val pp : Format.formatter -> t -> unit
