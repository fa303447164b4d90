(** One interface over every two-sample leak test.

    A detector compares a [null] series (timing observations with the
    secret absent — no co-resident victim, or the masked configuration)
    against an [alt] series (secret present) and reports whether an
    observer could tell them apart: the test statistic, its p-value, an
    effect size, a boolean leak call at the detector's recorded threshold,
    and the observations-needed curve over the paper's confidence grid.

    Five instances cover the repo's battery: Welch's t-test, Cohen's d,
    label mutual information (G-test), two-sample KS, and the chi-square
    distinguisher of Fig. 4(b) — the last two being the empirical
    observations-needed computations the figure benches call. *)

type report = {
  detector : string;
  statistic : float;
  p_value : float;  (** [nan] when the series was too short to test. *)
  effect : float;
      (** Detector-native effect size: Cohen's d, MI in bits, the KS
          distance, or the per-observation chi-square divergence. *)
  leak : bool;
  observations_at : (float * float) list;
      (** [(confidence, observations needed)] over {!confidence_grid}. *)
  n_null : int;
  n_alt : int;
}

type t = {
  name : string;
  min_samples : int;
      (** Smallest per-side sample the verdict will test; below it the
          report carries [nan] statistics and [leak = false]. *)
  verdict : null:float array -> alt:float array -> report;
  observations_needed :
    null:float array -> alt:float array -> confidence:float -> float;
      (** Expected observations before the detector distinguishes the two
          sources at [confidence]; [infinity] when it never would. *)
}

(** The paper's confidence grid (0.70 ... 0.95, 0.99), the x-axis of every
    observations-needed curve. *)
val confidence_grid : float list

(** [skipped r] is true when the verdict declined to test (series shorter
    than [min_samples]); such reports never flag a leak. *)
val skipped : report -> bool

(** Two-sample Kolmogorov–Smirnov: flags when p < 0.01. *)
val ks : t

(** Two-sample chi-square homogeneity verdict over 10 pooled quantile bins,
    flagging when p < 0.01; its observations-needed curve is the Fig. 4(b)
    distinguisher: bin edges are the null sample's quantiles, bin
    probabilities the empirical frequencies. *)
val chi_square : t

(** The full battery, in report order: Welch's t (p < 0.01), Cohen's d
    (|d| >= 0.5, Cohen's "medium"; its p-value is Welch's), label mutual
    information (G-test p < 0.01), {!ks} and {!chi_square}. *)
val all : t list
