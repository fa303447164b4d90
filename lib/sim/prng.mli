(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component of a simulation draws from its own generator
    obtained via {!split}, so simulations are reproducible bit-for-bit from a
    single seed regardless of event interleaving.

    {b Domain ownership.} Generators are mutable and carry no lock: a [t]
    must be owned by exactly one domain at a time. Sharing one generator
    between domains is a data race and, worse, makes draw order depend on
    scheduling, destroying reproducibility even when the race happens to be
    benign. The supported pattern — the one [Sw_runner] jobs follow — is to
    derive each parallel job's generator {e before} dispatch (via {!split},
    or {!create} on a seed fixed in the job's spec) and move it to the
    worker domain wholesale. Sibling generators obtained by [split]
    share no state, so concurrent draws from them are race-free and yield
    the same sequences as sequential draws. *)

type t

val create : int64 -> t

(** [split t] derives an independent generator, advancing [t]. *)
val split : t -> t

(** [mix seed key] folds [key] into [seed] through one SplitMix64 round.
    Pure; used to build stream keys from structured identities. *)
val mix : int64 -> int64 -> int64

(** [derive ~seed keys] builds a generator whose state is a pure function
    of [(seed, keys)]. Unlike {!split} it consumes nothing from a shared
    stream, so the result is independent of construction order — the
    discipline sharded simulations rely on for partition-independent
    draws. *)
val derive : seed:int64 -> int64 list -> t

(** [float t] draws uniformly from [[0, 1)]. *)
val float : t -> float

(** [int t n] draws uniformly from [[0, n)]. Raises [Invalid_argument] when
    [n <= 0]. *)
val int : t -> int -> int

(** [uniform t ~lo ~hi] draws uniformly from [[lo, hi)]. *)
val uniform : t -> lo:float -> hi:float -> float

(** [exponential t ~rate] draws from Exp(rate) (mean [1/rate]). *)
val exponential : t -> rate:float -> float
