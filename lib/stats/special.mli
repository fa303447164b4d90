(** Special functions needed by the statistical machinery. *)

(** Natural log of the gamma function (Lanczos approximation), for [x > 0]. *)
val log_gamma : float -> float

(** Regularised lower incomplete gamma [P(a, x)], for [a > 0], [x >= 0]. *)
val gamma_p : float -> float -> float

(** Regularised incomplete beta [I_x(a, b)] (continued fraction), for
    [a, b > 0] and [x] in [[0, 1]] — the tail function behind Student's t
    p-values. *)
val betai : float -> float -> float -> float

(** Error function. *)
val erf : float -> float

(** Standard normal CDF, via {!erf}. *)
val norm_cdf : float -> float

(** Standard normal quantile (inverse of {!norm_cdf}), for [p] in (0, 1);
    found by bisection, so exactly as accurate as the {!erf}
    approximation. *)
val probit : float -> float

(** Binomial coefficient as a float (exact for small arguments). *)
val choose : int -> int -> float
