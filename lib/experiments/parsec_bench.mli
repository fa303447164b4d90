(** Driver for the Fig. 7 PARSEC experiments. *)

type outcome = {
  runtime_ms : float;
  disk_interrupts : int;
  delta_d_violations : int;
  divergences : int;
  metrics : Sw_obs.Snapshot.t;  (** Full cloud metrics snapshot. *)
}

(** [run ?config ~baseline profile] runs one Fig. 7 row with a fixed seed;
    [config] defaults to the paper's delta_d = 8 ms (the ablation sweeps
    it). *)
val run :
  ?config:Sw_vmm.Config.t -> baseline:bool -> Sw_apps.Parsec.profile -> outcome

(** [job ~baseline profile] is {!run} at the default config as a runner
    job. *)
val job : baseline:bool -> Sw_apps.Parsec.profile -> string * (unit -> outcome)
