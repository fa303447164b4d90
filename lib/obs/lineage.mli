(** Causal lineage reconstruction over the replicated interrupt pipeline.

    The StopWatch delivery protocol leaves a typed event trail:
    [Ingress_replicated] (the ingress stamps and fans an inbound packet out)
    → [Packet_proposed]{^ ×m} (each replica proposes [virt + Δn] and
    records its peers' proposals) → [Median_adopted] (a replica's quorum
    completes; the median becomes the delivery time) → [Packet_delivered]
    (the guest sees the interrupt at the agreed virtual instant).

    This module folds a {!Trace} into one {!chain} per [(vm, ingress_seq)]
    and derives the diagnosis data the raw ring cannot give directly:

    - {b lag histograms} — propose→adopt (quorum gathering time) and
      adopt→deliver (virtual-time wait), on the {!Buckets} ladder;
    - {b median-win shares} — which replica's proposal the median adopted
      (ties split), the observable of Sec. IX's marginalisation attack;
    - {b skew series} — the spread of proposal virtual times per chain over
      time, the protocol-level view of replica skew;
    - {b orphans} — protocol violations surfaced as data: a replica that
      recorded proposals but never adopted a median
      ([Unadopted_proposal] — a crashed or quorum-starved replica), or a
      delivery with no recorded median ([Unmatched_delivery] — an emission
      gap or a truncated ring).

    A chain that was adopted but not yet delivered when the run ended is
    {e in flight}, not an orphan: the agreed virtual delivery instant
    simply lies beyond the end of the trace. *)

type proposal = {
  observer : int;  (** Replica at which the proposal was recorded. *)
  proposer : int;
  at_ns : int;  (** Simulated instant of the record. *)
  virt_ns : int;  (** Proposed virtual delivery time. *)
}

type adoption = {
  replica : int;
  at_ns : int;
  virt_ns : int;  (** The adopted median. *)
  proposals : (int * int) list;  (** The proposals it was taken over. *)
}

type delivery = { replica : int; at_ns : int; virt_ns : int }

type chain = {
  vm : int;
  ingress_seq : int;
  ingress_at_ns : int option;
      (** When the ingress stamped the packet, when that event is in the
          trace. *)
  proposals : proposal list;  (** In emission order. *)
  adoptions : adoption list;
  deliveries : delivery list;
}

type orphan_kind =
  | Unadopted_proposal
      (** The replica recorded proposals for this packet but never adopted
          a median — it crashed, or its quorum never completed. *)
  | Unmatched_delivery
      (** The replica delivered the packet without a recorded median — an
          event-coverage gap or ring truncation. *)

type orphan = {
  o_vm : int;
  o_ingress_seq : int;
  o_replica : int;
  kind : orphan_kind;
}

(** The delivery-pipeline mechanism a timing series is attributed to —
    the "which masking layer failed" axis of a leak audit. *)
type mechanism =
  | Median_adoption  (** Propose→adopt lags: quorum gathering time. *)
  | Delivery_gap
      (** Virtual inter-delivery gaps between successive chains — what the
          guest-visible interrupt clock exposes. *)
  | Egress_release  (** Gaps between egress release instants. *)
  | Ingress_latency
      (** Ingress stamp → first delivery (virtual instant), per chain. The
          sender side of a probe stream knows its own send times, so this
          end-to-end latency is observable by an attack apparatus that
          controls the traffic source. *)

val mechanism_label : mechanism -> string

(** Lag histogram on the {!Buckets} ladder; [buckets] pairs each non-empty
    bucket's upper bound (ns) with its count, ascending. *)
type hist = {
  count : int;
  total_ns : int;
  min_ns : int;  (** Meaningless when [count = 0]. *)
  max_ns : int;  (** Meaningless when [count = 0]. *)
  buckets : (int * int) list;
}

type t

(** [of_entries entries] reconstructs chains from entries in emission
    order. [dropped] (default 0) records how many entries the source ring
    lost; it is carried into {!dropped} and the summary's truncation
    warning. *)
val of_entries : ?dropped:int -> Trace.entry list -> t

(** [of_trace tr] = [of_entries ~dropped:(Trace.dropped tr) (Trace.entries tr)]. *)
val of_trace : Trace.t -> t

(** Chains sorted by [(vm, ingress_seq)]. *)
val chains : t -> chain list

(** Orphans sorted by [(vm, ingress_seq, replica)]; empty on a fault-free,
    untruncated run. *)
val orphans : t -> orphan list

val total : t -> int
val complete : t -> int

(** Chains adopted but not delivered when the trace ended. *)
val in_flight : t -> int

val propose_to_adopt : t -> hist
val adopt_to_deliver : t -> hist

(** Lag samples that came out negative — always [0] unless the protocol
    (or the trace) is broken; surfaced rather than silently clamped. *)
val negative_lags : t -> int

(** [(replica, share)] of median adoptions credited to each replica's
    proposal, shares summing to 1 (ties split). *)
val median_wins : t -> (int * float) list

(** Ring drops carried from the source trace. *)
val dropped : t -> int

(** Per-[(vm, mechanism)] timing series (milliseconds, in trace order),
    ready for a leak detector: propose→adopt lags, inter-delivery gaps
    (successive chains' first delivery virtual times), and egress release
    gaps. Empty series are omitted; sorted by [(vm, mechanism)]. This is
    the one extraction point — callers should not re-fold the trace
    ring. *)
val observations : t -> ((int * mechanism) * float array) list

val pp_summary : Format.formatter -> t -> unit
