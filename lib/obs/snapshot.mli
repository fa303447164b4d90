(** Immutable point-in-time view of a {!Registry}.

    A snapshot is the unit the runner aggregates: each job returns the
    snapshot of its simulation's registry, and the driver merges them in job
    order. Merging is exact (integer sums, float sums in a fixed order,
    watermark maxima, bucket-wise histogram addition), so a [-j N] sweep
    merges to byte-identical results with a [-j 1] run — the same contract as
    [Sw_sim.Summary.merge]. *)

type histogram = {
  count : int;
  total : int;  (** Sum of observed values, ns. *)
  min : int;  (** Meaningless when [count = 0]. *)
  max : int;  (** Meaningless when [count = 0]. *)
  buckets : (int * int) list;
      (** Sparse [(bucket index, count)] pairs, ascending index; see
          {!Buckets}. *)
}

type data =
  | Counter of int
  | Sum of float
  | Gauge of float
  | Histogram of histogram

type t

val empty : t

(** [of_list entries] sorts [entries] by name. Raises [Invalid_argument] on
    duplicate names. *)
val of_list : (string * data) list -> t

(** Entries in ascending name order. *)
val to_list : t -> (string * data) list

val is_empty : t -> bool
val find : t -> string -> data option

(** [counter t name] is the counter's value, or [0] when absent. Raises
    [Invalid_argument] when [name] holds a different metric kind. *)
val counter : t -> string -> int

(** [sum t name] is the float accumulator's value, or [0.] when absent. *)
val sum : t -> string -> float

(** [gauge t name] is the watermark value, or [0.] when absent. *)
val gauge : t -> string -> float

val histogram : t -> string -> histogram option

(** [merge a b] combines per-name: counters and sums add, gauges take the
    max, histograms add bucket-wise (min/max/total folded in). Names present
    on one side only pass through. Raises [Invalid_argument] when the two
    sides disagree on a name's metric kind. *)
val merge : t -> t -> t

val merge_all : t list -> t

(** [without_sim t] drops [sim.*], the execution substrate's bookkeeping
    (event counts, queue watermarks, scheduling delays, conductor rounds):
    deterministic for a given shard layout but different across layouts.
    Comparisons across layouts use this; same-layout ones keep [sim.*]. *)
val without_sim : t -> t

val pp : Format.formatter -> t -> unit
