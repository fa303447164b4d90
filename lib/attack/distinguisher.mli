(** The attacker's statistical test on known distributions: how many timing
    observations are needed to tell "coresident with the victim" from "not
    coresident", at a given confidence — the y-axis of Figs. 1(b) and
    1(c). The same computation from raw samples is
    {!Sw_leak.Detector.chi_square}'s [observations_needed]. *)

(** [analytic ~null ~alt ~bins ~confidence] bins the null distribution into
    [bins] equiprobable bins and returns the expected observation count for a
    chi-square rejection of the null when sampling from [alt]. *)
val analytic :
  null:Sw_stats.Dist.t -> alt:Sw_stats.Dist.t -> ?bins:int -> confidence:float -> unit -> float

(** {!analytic} over {!Sw_leak.Detector.confidence_grid}. *)
val sweep_analytic :
  null:Sw_stats.Dist.t -> alt:Sw_stats.Dist.t -> ?bins:int -> unit -> (float * float) list
