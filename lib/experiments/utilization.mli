(** Utilisation under load: Sec. VIII's placement bound exercised as a real
    workload, not just combinatorics.

    A cloud of [machines] machines runs [vms] StopWatch guest VMs placed by
    the Theorem 2 construction (three replicas each, pairwise edge-disjoint
    coresidency), every guest serving HTTP; one client per VM downloads a
    file repeatedly for the measurement window. As [vms] approaches the
    Theorem 2 bound the machines fill up (each hosting up to [c] replica
    slices, sharing Dom0/NIC/disk), and the experiment reports how much the
    added coresidency costs — the price of the Θ(cn) utilisation the paper
    claims over one-VM-per-machine isolation. *)

type outcome = {
  vms : int;
  completed_downloads : int;
  mean_latency_ms : float;
  p95_latency_ms : float;
  divergences : int;
}

(** [run ~machines ~capacity ~vms ~file_bytes ~duration], at the default
    config with a fixed seed. Requires [machines = 3 mod 6] and [vms] within
    the Theorem 2 bound. *)
val run :
  machines:int ->
  capacity:int ->
  vms:int ->
  file_bytes:int ->
  duration:Sw_sim.Time.t ->
  outcome
