(** Liveness watchdog for a replica group (graceful degradation).

    Sweeps the group every [Config.watchdog.period]: an active member whose
    last sign of life ({!Replica_group.last_seen} — VM exits, VMM heartbeats,
    coordination messages observed by peers) is older than the timeout
    accumulates a suspicion ({!Sw_obs.Event.Degrade_suspected}); after
    [retries] tolerated suspicious sweeps it is ejected
    ({!Replica_group.eject}, {!Sw_obs.Event.Degrade_ejected}) so the group
    degrades to a smaller odd quorum instead of wedging on a dead replica.
    A member seen again before ejection resets its suspicion count; the last
    active member is never ejected. Reintegration is the VMM's job
    ({!Vmm.reintegrate}) — the watchdog simply resumes monitoring reinstated
    members.

    Distinguishing dead from blocked relies on [Config.vmm_heartbeat]:
    heartbeats are engine-driven, so a skew- or epoch-blocked replica keeps
    beating while a crashed one falls silent. *)

type t

(** [create engine group] starts the sweep loop. Raises unless the group's
    config has [watchdog] set (validation already requires [vmm_heartbeat]
    alongside it). *)
val create : Sw_sim.Engine.t -> Replica_group.t -> t

(** Emit [Degrade_*] events into [tr]. *)
val set_trace : t -> Sw_obs.Trace.t -> unit

(** Stops the sweep loop permanently. *)
val stop : t -> unit
