(** Deterministic per-job seed derivation.

    A job's seed is a pure function of its key (and an optional base seed),
    never of scheduling order, worker identity, or wall-clock time — the
    invariant that makes parallel and sequential sweeps aggregate to
    identical results. *)

(** [of_key ?base key] hashes [key] (FNV-1a 64) and finalises it with the
    SplitMix64 mixer against [base]. Equal keys and bases give equal seeds;
    distinct keys give independent-looking seeds. *)
val of_key : ?base:int64 -> string -> int64

(** [nth seed i] derives the seed for the [i]-th replicate of a job family,
    e.g. run [i] of a replicated measurement. *)
val nth : int64 -> int -> int64
