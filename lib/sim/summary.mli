(** Online summary statistics (Welford's algorithm). *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float

(** Sample standard deviation, from the unbiased (n-1 denominator)
    variance; [0.] for fewer than two observations. *)
val stddev : t -> float

(** Raises [Invalid_argument] when empty. *)
val min : t -> float

(** Raises [Invalid_argument] when empty. *)
val max : t -> float

val total : t -> float
val merge : t -> t -> t
