(** Orchestration of simulation-job fleets: dispatch over a {!Pool},
    per-job timeout and bounded retry with exponential backoff, crash
    isolation, live progress events, and order-stable result collection.

    Determinism contract: results come back in job-list order and each
    job's seed is fixed before dispatch ({!Job}), so the outcome list —
    and anything aggregated from it — is byte-identical whether the fleet
    runs on 1 worker or 16. Only wall-clock fields ([wall_s], [Timed_out])
    vary; they are read from the monotonic {!Sw_obs.Profile.now_ns}. *)

(** Why a job (after all its attempts) was abandoned. *)
type reason =
  | Exn of string  (** The attempt raised; the printed exception. *)
  | Timed_out of float
      (** The attempt's wall-clock seconds exceeded the timeout. Detected
          when the attempt returns — OCaml domains cannot be preempted, so
          an over-budget attempt runs to completion, its result is
          discarded, and the job is retried or failed. *)

type failure = { key : string; attempts : int; reason : reason }

(** A job's final status: [Ok v], or a structured failure that did not
    abort the rest of the fleet. *)
type 'a outcome = ('a, failure) result

val pp_failure : Format.formatter -> failure -> unit

(** Progress events, emitted serialised (never concurrently). [index] is
    the job's position in the submitted list. *)
type event =
  | Started of { index : int; key : string; attempt : int }
  | Attempt_failed of {
      index : int;
      key : string;
      attempt : int;
      reason : reason;
      will_retry : bool;
    }
  | Finished of { index : int; key : string; attempt : int; wall_s : float }

(** [progress_printer ~total ()] is an [on_event] callback printing
    one line per finished/failed job to [stderr]. *)
val progress_printer : ?out:out_channel -> total:int -> unit -> event -> unit

(** [map ?pool ?timeout_s ?retries ?backoff_s ?on_event jobs] runs every
    job and returns their outcomes in submission order.

    Without [pool] (or on a 1-worker pool) jobs run inline, sequentially.
    [retries] (default 1) is the number of {e re}-attempts after the
    first; attempt [k]'s failure backs off [backoff_s * 2^(k-1)] seconds
    (default 0.05) before retrying. Each attempt is told its number
    ({!Job.run_attempt}), so jobs built with {!Job.make_resumable} — e.g.
    checkpointing soaks — recover from where the crashed attempt left off
    rather than restarting. [timeout_s] bounds each attempt as described
    under {!Timed_out}. An exception in one job never propagates: it
    becomes that job's [Error]. *)
val map :
  ?pool:Pool.t ->
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?on_event:(event -> unit) ->
  'a Job.t list ->
  'a outcome list

(** [map_groups ?pool ... groups] flattens tagged job groups into one
    fleet — so small groups share the pool instead of each paying a
    dispatch barrier — and re-associates outcomes per group, in order. *)
val map_groups :
  ?pool:Pool.t ->
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?on_event:(event -> unit) ->
  ('g * 'a Job.t list) list ->
  ('g * 'a outcome list) list

(** Successful results, dropped failures. *)
val successes : 'a outcome list -> 'a list

val failures : 'a outcome list -> failure list

(** [merge_summaries outcomes] folds {!Sw_sim.Summary.merge} over the
    successful per-job summaries — the parallel aggregation path. *)
val merge_summaries : Sw_sim.Summary.t outcome list -> Sw_sim.Summary.t

(** [get outcome] unwraps, raising [Failure] with the formatted failure —
    for callers whose jobs must not fail (e.g. regression drivers). *)
val get : 'a outcome -> 'a
