(** A growable collection of float observations with order-statistics
    queries. Used to build empirical distributions of observed timings. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float

(** [percentile t p] with [p] in [[0, 1]]; linear interpolation between order
    statistics. Raises [Invalid_argument] when empty or [p] out of range. *)
val percentile : t -> float -> float

(** Raw copy in insertion order. *)
val to_array : t -> float array
