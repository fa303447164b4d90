(** Open-loop arrival processes.

    An arrival process describes {e offered} load: request instants are
    drawn independently of the system's response times (open loop), so a
    slow server faces a growing backlog instead of silently throttling its
    own load — the regime where mitigation overhead actually shows
    (ROADMAP item 2's "fig9"-class curves).

    Every process is a deterministic function of its parameters and the
    supplied generator: equal [(process, seed)] pairs enumerate equal
    arrival instants, the property the DSL's [-j N] byte-identity contract
    rests on. Time-varying processes (diurnal, flash crowd, trace replay)
    are inhomogeneous Poisson processes sampled by Lewis–Shedler thinning
    against their peak rate. *)

type t =
  | Constant of { rate_per_s : float }
      (** Evenly spaced arrivals, period [1/rate]. *)
  | Poisson of { rate_per_s : float }
      (** Homogeneous Poisson (exponential gaps). *)
  | Diurnal of {
      base_per_s : float;
      amplitude : float;  (** Relative swing in [0, 1]. *)
      period : Sw_sim.Time.t;
    }
      (** Sinusoidal rate [base * (1 + amplitude * sin (2 pi t / period))] —
          a day-night load curve compressed to simulation scale. *)
  | Flash of {
      base_per_s : float;
      peak_per_s : float;
      at : Sw_sim.Time.t;  (** Spike onset. *)
      ramp : Sw_sim.Time.t;  (** Linear ramp up (and back down). *)
      hold : Sw_sim.Time.t;  (** Plateau at [peak_per_s]. *)
    }
      (** Flash crowd: base load, then a linear ramp to [peak_per_s], a
          plateau, and a symmetric ramp back down. *)
  | Replay of { points : (Sw_sim.Time.t * float) list }
      (** Piecewise-constant rate table [(from, rate_per_s)]: the rate is 0
          before the first point and [rate i] from [from i] (inclusive) to
          the next point. Points must be strictly increasing in time. *)

(** Raises [Invalid_argument] on negative rates, amplitude outside [0, 1],
    [peak < base], negative spans, or a non-increasing replay table. *)
val validate : t -> unit

(** A stateful enumerator of arrival instants. *)
type gen

(** [generator t ~rng ~until] starts enumerating from time 0; the
    generator owns [rng] from then on. *)
val generator : t -> rng:Sw_sim.Prng.t -> until:Sw_sim.Time.t -> gen

(** The next arrival instant, strictly increasing across calls; [None]
    once the next arrival would land at or past [until]. *)
val next : gen -> Sw_sim.Time.t option
