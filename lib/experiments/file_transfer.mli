(** Drivers for the Fig. 5 file-retrieval experiments: one client downloading
    files of various sizes from a cloud-resident server, over HTTP/TCP or
    UDP/NAK, under StopWatch or unmodified-Xen baseline. *)

type protocol = Http | Udp

type outcome = {
  elapsed_ms : float;  (** Mean over successful runs. *)
  runs : float list;
  divergences : int;
  failed_runs : Sw_runner.Runner.failure list;
      (** Runs that raised; excluded from [elapsed_ms] and [runs] instead
          of aborting the sweep. *)
  metrics : Sw_obs.Snapshot.t;
      (** Merged metrics snapshot over the successful runs' clouds. *)
}

(** [jobs ~protocol ~baseline ~size_bytes ~runs] is the replicated
    measurement at the default config as independent runner jobs, one per
    run, each returning [(elapsed_ms, divergences, metrics snapshot)]. Run
    [i]'s cloud seed, [0xF165 + i * 7919], is fixed in its thunk at
    construction, so outcomes are independent of worker count and dispatch
    order. [baseline] deploys one unreplicated VM instead of a StopWatch
    triple. *)
val jobs :
  protocol:protocol ->
  baseline:bool ->
  size_bytes:int ->
  runs:int ->
  (string * (unit -> float * int * Sw_obs.Snapshot.t)) list

(** [collect outcomes] aggregates one replicated measurement. *)
val collect :
  (float * int * Sw_obs.Snapshot.t) Sw_runner.Runner.outcome list -> outcome

(** [run ?config ?pool ~protocol ~baseline ~size_bytes ~runs ()] performs
    the {!jobs} downloads under [config] (default {!Sw_vmm.Config.default})
    — in parallel when [pool] is given, with identical results either way
    — and averages. *)
val run :
  ?config:Sw_vmm.Config.t ->
  ?pool:Sw_runner.Pool.t ->
  protocol:protocol ->
  baseline:bool ->
  size_bytes:int ->
  runs:int ->
  unit ->
  outcome

(** The paper's file-size sweep: 1 KB to 10 MB, log-spaced. *)
val paper_sizes : int list
