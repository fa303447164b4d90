(** Probability distributions as first-class values.

    A distribution packages a CDF together with a sampler; analytic
    experiments (Fig. 1, Fig. 8) use the CDFs, simulations use the
    samplers. *)

type t = {
  cdf : float -> float;
  sample : Sw_sim.Prng.t -> float;
  lo : float;  (** Lower end of (effective) support, for integration. *)
  hi : float;  (** Upper end of (effective) support, for integration. *)
}

(** Exponential with rate [lambda] (mean [1/lambda]); [hi] is set at the
    99.9999th percentile. *)
val exponential : rate:float -> t

val uniform : lo:float -> hi:float -> t

(** Point mass at [x]. *)
val constant : float -> t

(** Mean by the trapezoidal rule on a grid of 4096 points. *)
val mean : t -> float
val quantile : t -> float -> float
