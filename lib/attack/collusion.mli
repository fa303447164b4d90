(** Collaborating attacker VMs (paper Sec. IX).

    A second attacker VM shares one machine with one replica of the first
    and generates heavy device-model/disk load there, trying to marginalise
    that replica from the median computations. In the simulation the attack
    "works" exactly as Sec. IX fears — at Dom0 saturation the loaded
    replica's proposals stop being adopted and the medians track the
    victim-coresident replica — but it also floods the synchrony-violation
    detector (paper footnote 4), supporting the paper's argument that the
    attack is hard to mount quietly. The defence's answer is more replicas:
    with five, marginalising one barely moves the median. *)

type row = {
  label : string;
  replicas : int;
  colluder : bool;
  observations : (float * float) list;
      (** (confidence, observations needed) to detect the victim. *)
  divergences : int;
  loaded_replica_share : float;
      (** Fraction of medians contributed by the colluder-loaded replica
          (1/m expected when unloaded; below that = marginalised). *)
}

(** [table ?duration ()] runs the three comparisons: 3 replicas without
    collusion, 3 with, 5 with, each at the default attack's 40 pings/s.
    Each entry needs two simulations (victim present / absent). *)
val table : ?duration:Sw_sim.Time.t -> unit -> row list
