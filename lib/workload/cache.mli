(** A tiered LRU front cache with asymmetric hit/miss service costs.

    Tier 0 is the smallest and fastest; an access that hits tier [i] pays
    that tier's [hit_cost] and promotes the key to the head of tier 0,
    with LRU overflow cascading down the tiers ([tier 0]'s tail demotes to
    [tier 1]'s head, and so on; the last tier's tail falls out entirely).
    A miss pays [origin_cost] {e before} the origin fetch itself (the
    guest models the fetch as a disk read), then inserts at tier 0.

    The hit/miss cost asymmetry is deliberate and documented as a timing
    channel of its own: a co-resident observer that can tell hits from
    misses learns which keys other tenants keep warm. The workload engine
    exposes exactly that asymmetry to the attack library.

    The cache is pure state machine — no randomness, no ambient time — so
    replicas driving one from identical event streams stay identical. *)

type tier = { capacity : int; hit_cost : Sw_sim.Time.t }

type config = {
  tiers : tier list;  (** Fastest first; must be non-empty. *)
  origin_cost : Sw_sim.Time.t;
      (** Origin round-trip paid on a miss before the backing fetch. *)
}

(** Raises [Invalid_argument] on an empty tier list, non-positive
    capacities, or negative costs. *)
val validate_config : config -> unit

type t

type outcome =
  | Hit of { tier : int; cost : Sw_sim.Time.t }
  | Miss of { cost : Sw_sim.Time.t }  (** [cost] is [origin_cost]. *)

val create : config -> t

(** [access t key] looks [key] up, updates recency/tier state, and reports
    where it was found. *)
val access : t -> int -> outcome

