(** Orchestration of simulation-job fleets: dispatch over a {!Pool}, crash
    isolation, live progress events, and order-stable result collection.

    A job is a key and a thunk, [(key, f)], and it runs once. The key
    names the job in progress events and failure records. The thunk must
    be self-contained: it may not share mutable state (in particular
    {!Sw_sim.Prng} generators, see that interface's domain-ownership note)
    with any other job, and every input it reads, its seed included, is
    fixed before dispatch.

    Determinism contract: results come back in job-list order, so the
    outcome list — and anything aggregated from it — is byte-identical
    whether the fleet runs on 1 worker or 16. Only [wall_s] varies; it is
    read from the monotonic {!Sw_obs.Profile.now_ns}. *)

(** A job that raised: its key and the printed exception. *)
type failure = { key : string; exn : string }

(** A job's status: [Ok v], or a structured failure that did not abort the
    rest of the fleet. *)
type 'a outcome = ('a, failure) result

val pp_failure : Format.formatter -> failure -> unit

(** Progress events, emitted serialised (never concurrently), one per job.
    [index] is the job's position in the submitted list. *)
type event =
  | Finished of { index : int; key : string; wall_s : float }
  | Failed of { index : int; key : string; exn : string }

(** [progress_printer ~total] is an [on_event] callback printing
    one line per finished/failed job to [stderr]. *)
val progress_printer : total:int -> event -> unit

(** [map ?pool ?on_event jobs] runs every job once and returns their
    outcomes in submission order.

    Without [pool] (or on a 1-worker pool) jobs run inline, sequentially.
    An exception in one job never propagates: it becomes that job's
    [Error]. *)
val map :
  ?pool:Pool.t ->
  ?on_event:(event -> unit) ->
  (string * (unit -> 'a)) list ->
  'a outcome list

(** [map_groups ?pool ?on_event groups] flattens tagged job groups into one
    fleet — so small groups share the pool instead of each paying a
    dispatch barrier — and re-associates outcomes per group, in order. *)
val map_groups :
  ?pool:Pool.t ->
  ?on_event:(event -> unit) ->
  ('g * (string * (unit -> 'a)) list) list ->
  ('g * 'a outcome list) list

(** Successful results, dropped failures. *)
val successes : 'a outcome list -> 'a list

val failures : 'a outcome list -> failure list

(** [get outcome] unwraps, raising [Failure] with the formatted failure —
    for callers whose jobs must not fail (e.g. regression drivers). *)
val get : 'a outcome -> 'a
