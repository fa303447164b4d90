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

(** [install env schedule] validates [schedule] and arms every window as an
    engine event. Registers [fault.injected] / [fault.skipped] counters on
    the engine's registry and, when the engine has a trace attached, emits
    [Fault_injected] / [Fault_cleared] events into it. *)
val install : env -> Schedule.t -> t
