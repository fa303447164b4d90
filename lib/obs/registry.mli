(** Per-simulation metrics registry.

    One registry per simulation (the engine owns it); every component
    registers its instruments at construction under a hierarchical dotted
    path — ["vmm.0.vm0.disk.interrupts"], ["net.ingress.replicated"] — and
    bumps them through the returned handle, which is a single mutable cell
    (no name lookup on the hot path).

    Metric kinds and their merge semantics (see {!Snapshot.merge}):
    - {b counter}: monotone int event count; merge adds.
    - {b sum}: float accumulator (e.g. fractional median credits); merge adds.
    - {b gauge}: high-watermark float (queue depths, maxima); merge takes max.
    - {b histogram}: int-ns values over the fixed log ladder of {!Buckets};
      merge adds bucket-wise. Values, total, min and max are immediate
      [int]s, so an observation is a bucket search and four stores with no
      allocation.

    Registries are single-domain objects: a simulation's registry lives and
    dies with its job, and only {!Snapshot} values cross domains. *)

type t

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int

  (** Reset to zero (for measurement-window style uses, e.g.
      [Network.reset_counters]). *)
  val reset : t -> unit
end

module Sum : sig
  type t

  val add : t -> float -> unit
  val value : t -> float
end

module Gauge : sig
  type t

  (** [observe g v] raises the watermark to [v] when [v] is larger. *)
  val observe : t -> float -> unit

  (** Unboxed fast path: like {!observe} but an int compare-and-store, no
      float conversion or boxing. The watermark reported by {!value} is the
      max across both paths. *)
  val observe_int : t -> int -> unit

  val value : t -> float
end

module Histogram : sig
  type t

  (** [observe h v] records the value [v], in ns. *)
  val observe : t -> int -> unit

  val count : t -> int
  val total : t -> int

  (** Largest observed value; [min_int] before any observation. *)
  val max : t -> int

  (** Smallest observed value; [max_int] before any observation. *)
  val min : t -> int
end

val create : unit -> t

(** Hot-path master switch, [true] at creation. Producers with several
    instrument updates per operation test [enabled] once and skip the whole
    block when the registry is off — one load and one branch instead of
    unconditional metric work. Instruments obtained from a disabled registry
    still work if bumped directly; the switch is a contract between producer
    and registry, not a lock. *)
val enabled : t -> bool

val set_enabled : t -> bool -> unit

(** [counter t path] returns the counter registered at [path], creating it on
    first use. Raises [Invalid_argument] when [path] is empty, contains
    characters outside [A-Za-z0-9._-], or is already registered as another
    metric kind. Same contract for {!sum}, {!gauge} and {!histogram}. *)
val counter : t -> string -> Counter.t

val sum : t -> string -> Sum.t
val gauge : t -> string -> Gauge.t
val histogram : t -> string -> Histogram.t

(** Deterministic point-in-time view, sorted by path. *)
val snapshot : t -> Snapshot.t
