(** The fixed log-spaced bucket ladder shared by every {!Registry.Histogram}.

    Buckets follow a 1-2-5 progression per decade from 1 ns up to 10^12 ns
    (~16.7 simulated minutes), with a final catch-all bucket whose upper bound
    is [max_int]. Values and bounds are immediate [int] nanoseconds, so
    filing an observation is a table read and one compare that allocates
    nothing.
    Because the ladder is identical for all histograms, merging two
    histograms is exact bucket-wise addition — the property the runner's
    deterministic [-j N] aggregation relies on. *)

(** Number of buckets, catch-all included. *)
val count : int

(** [bound i] is the inclusive upper bound (in ns) of bucket [i];
    [bound (count - 1)] is [max_int] (exported as [null]). Raises
    [Invalid_argument] out of range. *)
val bound : int -> int

(** [index v] is the bucket holding [v]: the smallest [i] with
    [v <= bound i]. Negative values land in bucket 0. *)
val index : int -> int
