(** Binned mutual-information estimation with the Miller–Madow bias
    correction, plus the G-test it induces.

    The leak-detection use is {!against_labels}: how much information the
    config label C (null vs alt) carries about an observed timing value X,
    I(C; X), estimated over a 2 × 8 contingency table whose columns are
    pooled-sample quantile bins. The G statistic [2 N I_plugin] (nats) is
    asymptotically chi-square, which gives the p-value. *)

type t = {
  mi_bits : float;  (** Miller–Madow corrected estimate, bits. *)
  plugin_bits : float;  (** Uncorrected plugin estimate, bits. *)
  plugin_nats : float;
  g_stat : float;  (** [2 N * plugin_nats], the G-test statistic. *)
  df : int;  (** (occupied rows - 1)(occupied columns - 1), at least 1. *)
  p_value : float;
  n : int;  (** Total observations in the table. *)
  bins : int;
}

(** MI between the sample label and the observed value: columns are
    quantile bins of the pooled sample, rows are {null, alt}. *)
val against_labels : null:float array -> alt:float array -> t
