(** Zipfian key popularity — the hot-key skew of a production KV service.

    Key [k] (0-based) is drawn with probability proportional to
    [1 / (k + 1) ^ theta]; [theta = 0] is uniform, [theta ~ 1] the classic
    web/memcached skew, larger values hotter heads. The distribution is
    precomputed at construction, so sampling is a [float] draw plus a
    binary search — cheap enough for per-request use. *)

type t

(** Raises [Invalid_argument] when [keys <= 0] or [theta < 0]. *)
val create : keys:int -> theta:float -> t

(** Draws a key in [[0, keys)]. *)
val sample : t -> Sw_sim.Prng.t -> int
