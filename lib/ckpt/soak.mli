(** The crash-resumable soak driver: run a [.scn] workload scenario to the
    end, checkpointing the whole simulation on a fixed simulated-time
    schedule, and — when started over a directory that already holds
    checkpoints of the {e same} scenario — resume from the newest image
    that verifies instead of starting over.

    The determinism contract of [Cloud.checkpoint]/[Cloud.restore] makes
    the outcome independent of how often the run was interrupted: a soak
    killed at any point and resumed (any number of times, in any process
    of the same binary) produces a byte-identical {!outcome} report to one
    uninterrupted run — the property [@soak-smoke] machine-checks in CI.

    Recovery rules, in order:
    - images that fail verification ({!Image.read}) are skipped, newest
      first, falling back to the previous one — a crash mid-write or a
      corrupted file costs at most one checkpoint interval of re-simulation;
    - a verified image whose scenario identity (name, compiled-workload
      digest, seed, shard count) differs from the requested one is a hard
      {!error.Wrong_scenario} — silently replaying someone else's state is
      the one thing a soak must never do;
    - a verified image of the right scenario that this binary cannot load
      ([Cloud.restore] failure: other build, unregistered payloads) is
      {!error.Unloadable} — re-simulating from scratch under a different
      binary would masquerade as a resume, so that choice is the
      caller's. *)

type event =
  | Resumed of { index : int; sim_ns : Sw_sim.Time.t }
  | Checkpointed of { index : int; sim_ns : Sw_sim.Time.t; path : string; bytes : int }
  | Skipped_image of { path : string; error : Image.error }
      (** An unusable newer image was passed over during recovery. *)
  | Leak_sampled of { index : int; sim_ns : Sw_sim.Time.t; leak : bool }
      (** A leak sample was taken at checkpoint grid point [index]
          (scenarios with [leak_audit] only). *)
  | Finished of { sim_ns : Sw_sim.Time.t }

type error =
  | Wrong_scenario of { image : string; expected : string }
  | Unloadable of { path : string; reason : string }
  | Image_error of Image.error

val pp_error : Format.formatter -> error -> unit

type outcome = {
  result : Sw_workload.Run.result;
  sim_ns : Sw_sim.Time.t;  (** Simulated time at the end of the run. *)
  checkpoints_written : int;  (** By this process. *)
  resumed_from : int option;  (** Checkpoint index, when resuming. *)
  images_skipped : int;  (** Unusable images passed over during recovery. *)
  leak_samples : (Sw_sim.Time.t * Sw_leak.Audit.t) list;
      (** One split-half drift audit per checkpoint grid point reached by
          this process, oldest first, stamped with the grid instant —
          empty unless the scenario set [leak_audit]. A resumed run
          re-samples only the grid points it itself crosses; the
          checkpointed observation series make each sample identical to
          the straight run's at the same index. *)
}

(** Raised when [kill_after] fires: the driver stops dead — no final
    checkpoint, no report — simulating a crash at a reproducible point.
    The CLI maps it to a distinctive exit code; tests catch it and call
    {!run} again to exercise resumption. *)
exception Killed of { checkpoints : int; sim_ns : Sw_sim.Time.t }

(** [run ~scenario ~dir ~every ()] drives [scenario] (which must be a
    [Workload]; [Invalid_argument] otherwise) to completion with a
    checkpoint every [every] of simulated time (the run end is always
    aligned to the scenario's own horizon, not to the grid).

    Every image is stamped with the scenario's identity (name, digest of
    the printed scenario, shard count), and a directory holding another
    scenario's images is refused. Command-line overrides (duration, shard
    count) are applied to [scenario] beforehand with
    {!Sw_workload.Dsl.override}, so they are part of that identity.
    [kill_after n] aborts the process-visible run by raising {!Killed}
    after the [n]-th checkpoint {e written by this process}.
    [keep] prunes the timeline to the newest [keep] images after each
    write (default: keep everything). [on_event] observes progress. *)
val run :
  scenario:Sw_workload.Dsl.t ->
  dir:string ->
  every:Sw_sim.Time.t ->
  ?kill_after:int ->
  ?keep:int ->
  ?on_event:(event -> unit) ->
  unit ->
  (outcome, error) result
