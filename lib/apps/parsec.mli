(** PARSEC-like computational workloads (paper Sec. VII-D, Fig. 7).

    The real PARSEC binaries cannot run on a simulated CPU, so each
    application is modelled as the paper characterises it: a total amount of
    computation interleaved with a measured number of disk I/Os (Fig. 7(b)).
    The compute totals are calibrated so that the simulated baseline runtimes
    land near the paper's Fig. 7(a) baseline bars; StopWatch's overhead then
    emerges from the disk-interrupt delivery machinery (delta_d), which is
    the paper's explanation of the overhead.

    The app signals completion by sending a [Sw_net.Msg.Job_done] packet to a collector
    host, so experiments measure completion in real time — through the
    egress median in StopWatch mode, exactly like an external observer. *)

type profile = {
  name : string;
  compute_branches : int;  (** Total computation (1 branch = 1 ns here). *)
  io_count : int;  (** Disk interrupts during the run (Fig. 7(b)). *)
  io_bytes : int;  (** Bytes per disk request. *)
  random_io_fraction : float;  (** Fraction of non-sequential requests. *)
  write_fraction : float;  (** Fraction of writes among requests. *)
}

(** The five applications used in the paper, with Fig. 7(b)'s interrupt
    counts: ferret 31, blackscholes 38, canneal 183, dedup 293,
    streamcluster 27. *)
val ferret : profile

val blackscholes : profile
val canneal : profile
val dedup : profile
val streamcluster : profile
val all_profiles : profile list

(** [app profile ~collector] builds the guest application: it starts at
    boot, alternates compute phases with disk I/O, and reports to
    [collector] when done. *)
val app : profile -> collector:Sw_net.Address.t -> Sw_vm.App.factory
