(** The uniform-noise alternative defence and its comparison against
    StopWatch at equal protection (paper Appendix, Fig. 8).

    The alternative adds noise XN ~ U(0, b) to each event timing instead of
    replicating VMs. For a fair comparison the paper fixes the number of
    observations the attacker needs under StopWatch (to distinguish victim
    from no-victim at a given confidence) and finds the minimum [b] giving
    the attacker the same confidence after the same number of observations;
    expected delays of the two defences are then compared. *)

type row = {
  confidence : float;
  observations : float;  (** Observations needed under StopWatch. *)
  b : float;  (** Minimum uniform-noise bound matching that protection. *)
  delay_stopwatch : float;  (** E[X_(2:3) + delta_n], no victim. *)
  delay_stopwatch_victim : float;  (** E[X'_(2:3) + delta_n]. *)
  delay_noise : float;  (** E[X_1 + XN]. *)
  delay_noise_victim : float;  (** E[X'_1 + XN]. *)
}

(** [compare ~lambda ~lambda' ()] computes one row per confidence of the
    paper's grid for Fig. 8 (0.70, 0.80, 0.90, 0.99), with the attacker's
    chi-square test over 10 equiprobable bins. StopWatch's delays add
    delta_n, the smallest d with P(|X1 - X'1| <= d) >= 0.9999 for
    X1 ~ Exp(lambda), X'1 ~ Exp(lambda') independent. *)
val compare : lambda:float -> lambda':float -> unit -> row list
