(** Deterministic fault schedules.

    A schedule is a plain list of timed fault windows, fully determined
    before the run starts: the injector draws nothing at run time, so a given
    [(seed, schedule)] pair yields a byte-identical trajectory — including
    under [-j N] parallelism, where each job derives its schedule from its
    own key alone. *)

type spec = {
  at : Sw_sim.Time.t;  (** Window start (simulated instant). *)
  span : Sw_sim.Time.t;  (** Window length; ignored by [Replica_crash]. *)
  fault : Fault.t;
}

type t = spec list

val empty : t

(** [at time fault] is the zero-span window at [time], for faults such as
    [Replica_crash] whose span is irrelevant; a window with a span is a
    {!spec} record. *)
val at : Sw_sim.Time.t -> Fault.t -> spec

(** Stable sort by (start, kind label, target) — the order the injector
    installs windows in. *)
val sorted : t -> t

(** Raises [Invalid_argument] on negative instants/spans or invalid fault
    parameters. *)
val validate : t -> unit

(** [windows ~seed ~until ~mean_gap ~mean_span ~make] derives a schedule
    from [seed]: window starts follow an exponential([mean_gap]) renewal
    process on [[0, until)), window lengths are exponential([mean_span]),
    and each window's fault is drawn by [make] from the same generator.
    Pure — equal arguments give equal schedules. *)
val windows :
  seed:int64 ->
  until:Sw_sim.Time.t ->
  mean_gap:Sw_sim.Time.t ->
  mean_span:Sw_sim.Time.t ->
  make:(Sw_sim.Prng.t -> Fault.t) ->
  t
