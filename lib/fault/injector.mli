(** Installs a {!Schedule} against a running deployment.

    The injector is a pure consumer of the engine clock: every window open,
    close, and restart is an ordinary engine event, so fault trajectories
    replay deterministically and compose with the rest of the simulation.
    Overlapping windows on the same target are safe — link disturbances
    combine (independent losses, additive latency), slowdown factors
    multiply, partitions refcount — and each close restores exactly its own
    contribution. *)

type env = {
  engine : Sw_sim.Engine.t;
  network : Sw_net.Network.t;
  machine_of : int -> Sw_vmm.Machine.t option;
      (** Resolve a machine id; [None] counts the window as skipped. *)
  instance_of : vm:int -> replica:int -> Sw_vmm.Vmm.instance option;
      (** Resolve a replica instance; [None] counts the window as skipped. *)
  restart : vm:int -> replica:int -> unit;
      (** Called (as an engine event) [restart_after] after a
          [Replica_crash]; expected to rebuild and reintegrate the
          replica. *)
}

type t

(** [install ?trace env schedule] validates [schedule] and arms every window
    as an engine event. Registers [fault.injected] / [fault.skipped]
    counters on the engine's registry and, when tracing, emits
    [Fault_injected] / [Fault_cleared] events. *)
val install : ?trace:Sw_obs.Trace.t -> env -> Schedule.t -> t

val set_trace : t -> Sw_obs.Trace.t -> unit

(** Windows whose open actually took effect. *)
val injected : t -> int

(** Windows whose target could not be resolved (unknown machine/replica, or
    a partition on a baseline deployment). *)
val skipped : t -> int
