(** Kolmogorov–Smirnov distance between distributions, the distinguishability
    measure used in the paper's Theorems 3 and 4. *)

(** [distance ~lo ~hi f g] approximates [max_x |f x - g x|] on a grid of
    4096 points over [[lo, hi]]. *)
val distance : lo:float -> hi:float -> (float -> float) -> (float -> float) -> float

(** Two-sample KS statistic from raw observations. *)
val two_sample : float array -> float array -> float

(** Asymptotic two-sample p-value of {!two_sample}, with the standard
    finite-sample correction on the effective sample size. *)
val p_value : float array -> float array -> float
