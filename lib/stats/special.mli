(** Special functions needed by the statistical machinery. *)

(** Regularised lower incomplete gamma [P(a, x)], for [a > 0], [x >= 0]. *)
val gamma_p : float -> float -> float

(** Regularised incomplete beta [I_x(a, b)] (continued fraction), for
    [a, b > 0] and [x] in [[0, 1]] — the tail function behind Student's t
    p-values. *)
val betai : float -> float -> float -> float

(** Standard normal quantile, for [p] in (0, 1): the inverse of the
    normal CDF [(1 + erf (x / sqrt 2)) / 2], found by bisection, so exactly
    as accurate as the erf approximation (Abramowitz & Stegun 7.1.26,
    absolute error under 1.5e-7). *)
val probit : float -> float

(** Binomial coefficient as a float (exact for small arguments). *)
val choose : int -> int -> float
