(** Two-sample location tests: Welch's unequal-variance t-test and the
    Cohen's d standardised effect size. *)

type t = {
  t_stat : float;
  df : float;  (** Welch–Satterthwaite effective degrees of freedom. *)
  p_value : float;  (** Two-sided, via the regularised incomplete beta. *)
}

(** [welch a b] tests whether the two samples share a mean without assuming
    equal variances. Requires at least two samples per side. Two constant
    samples degenerate cleanly: p = 1 when the means coincide, p = 0 (with
    an infinite statistic) when they differ. *)
val welch : float array -> float array -> t

(** [cohens_d a b] is (mean a - mean b) over the pooled standard deviation
    — the standardised effect size conventionally read as small/medium/
    large at 0.2/0.5/0.8. Signed infinity when the pooled variance is zero
    but the means differ; 0 when both are constant and equal. *)
val cohens_d : float array -> float array -> float
