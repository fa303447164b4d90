(** Driver for the Fig. 7 PARSEC experiments. *)

type outcome = {
  runtime_ms : float;
  disk_interrupts : int;
  delta_d_violations : int;
  divergences : int;
  metrics : Sw_obs.Snapshot.t;  (** Full cloud metrics snapshot. *)
}

val run :
  ?config:Sw_vmm.Config.t ->
  ?seed:int64 ->
  stopwatch:bool ->
  Sw_apps.Parsec.profile ->
  outcome

(** [job ?config ?seed ~stopwatch profile] is one Fig. 7 row as a runner
    job (seed fixed at construction). *)
val job :
  ?config:Sw_vmm.Config.t ->
  ?seed:int64 ->
  stopwatch:bool ->
  Sw_apps.Parsec.profile ->
  outcome Sw_runner.Job.t
