(** Driver for the Fig. 6 NFS experiments: an nhfsstone-style load generator
    (5 client processes, the paper's op mix) against a cloud-resident NFS
    server. *)

type outcome = {
  mean_latency_ms : float;
  completed : int;
  issued : int;
  client_to_server_per_op : float;  (** TCP packets, Fig. 6(b). *)
  server_to_client_per_op : float;
  divergences : int;
  metrics : Sw_obs.Snapshot.t;  (** Full cloud metrics snapshot. *)
}

(** [run ~baseline ~rate_per_s ~ops] runs one Fig. 6 point under
    {!nfs_config} with a fixed seed. *)
val run : baseline:bool -> rate_per_s:float -> ops:int -> outcome

(** [job ~baseline ~rate_per_s ~ops] is {!run} as a runner job, so load
    sweeps can shard across a {!Sw_runner.Pool}. *)
val job :
  baseline:bool -> rate_per_s:float -> ops:int -> string * (unit -> outcome)

(** The paper's offered-load sweep (ops/s). *)
val paper_rates : float list

(** The NFS experiments run with delta_n at the low end of the paper's
    observed 7-12 ms range. *)
val nfs_config : Sw_vmm.Config.t
