(** The runner's JSON builders for machine-readable results
    ([BENCH_results.json], per-job outcomes).

    [t] is {!Sw_obs.Json.t} and serialisation is {!Sw_obs.Json.to_string},
    so — important for the runner's determinism contract — equal values
    always serialise to equal bytes, and parallel and sequential sweeps can
    be compared with [String.equal]. *)

type t = Sw_obs.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact (single-line) serialisation: {!Sw_obs.Json.to_string}. *)
val to_string : t -> string

(** [write path json] writes [to_string json] plus a trailing newline. *)
val write : string -> t -> unit

(** Summary statistics as an object:
    [{"count", "mean", "stddev", "min", "max", "total"}] (min/max [Null]
    when empty). *)
val of_summary : Sw_sim.Summary.t -> t

(** A structured failure as an object:
    [{"key", "status", "attempts", ..., "reason"}] — [status] is
    ["crashed"] (with the printed exception under ["exn"]) or
    ["timed_out"] (with the budget under ["timeout_s"]), [attempts] the
    number of attempts spent; ["reason"] keeps the legacy one-line
    rendering. *)
val of_failure : Runner.failure -> t

(** One metrics snapshot: [Sw_obs.Export.to_json] without meta. *)
val of_metrics : Sw_obs.Snapshot.t -> t

(** [bench_file ?metrics ?perf ~workers ~wall_s ~timings ~experiments ()]
    assembles the [BENCH_results.json] document. Everything under
    ["experiments"] — and ["metrics"], when a merged snapshot is supplied —
    is deterministic (same bytes for any worker count); worker count,
    wall-clock readings and the engine micro-benchmark's throughput rows
    (["perf"], one object per workload) live under ["workers"] / ["timing"]
    / ["perf"] so consumers — and the determinism test — can split the
    two. *)
val bench_file :
  ?metrics:Sw_obs.Snapshot.t ->
  ?perf:(string * t) list ->
  workers:int ->
  wall_s:float ->
  timings:(string * float) list ->
  experiments:(string * t) list ->
  unit ->
  t
