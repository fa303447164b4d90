(** Divergence bisection over two checkpoint timelines.

    When two runs that should agree don't — a regression between binaries,
    a nondeterminism bug, shards 1 vs N disagreeing — their soak
    directories hold checkpoints on the {e same} absolute simulated-time
    grid, each stamped with a shard-layout-independent {!fingerprint}.
    {!first_divergence} binary-searches that shared grid for the first
    index whose fingerprints disagree, then narrows the window further:

    - it restores both sides' divergent images and reports exactly which
      (non-[sim.*]) metrics differ and how;
    - when both sides are single-shard and a common ancestor image exists,
      it replays the divergent window on each side with a structured trace
      attached and reports the {e first trace event} where the two
      executions part ways, together with that packet's
      {!Sw_obs.Lineage} causal chain (ingress stamp → proposals → median
      → delivery).

    The search assumes divergence is persistent (fingerprints are
    cumulative metric digests: once two runs disagree they do not
    re-converge), which is what makes binary search sound. *)

(** The shard-layout-independent identity of a cloud's state: the hex
    digest of the canonical JSON export of its metric snapshot with
    [sim.*] (execution-substrate bookkeeping) dropped. Equal fingerprints
    at equal simulated times mean the two clouds are observationally the
    same run, whatever their shard partition. *)
val fingerprint : Stopwatch.Cloud.t -> string

(** One differing metric: name, rendered value on side A, on side B
    ([None] = absent on that side). *)
type metric_diff = string * string option * string option

type divergence = {
  index : int;  (** First checkpoint index whose fingerprints differ. *)
  sim_ns : Sw_sim.Time.t;  (** Simulated time of that checkpoint. *)
  last_common : int option;
      (** Newest index where both sides still agreed; [None] when they
          disagree from the very first shared checkpoint. *)
  metric_diff : metric_diff list;  (** Ascending by name. *)
  first_event :
    (int * Sw_obs.Trace.entry option * Sw_obs.Trace.entry option) option;
      (** [(position, a, b)]: the first position in the replayed divergent
          window where the two traces disagree, with each side's entry at
          that position ([None] = that side's trace ended first). [None]
          when the window could not be replayed (no common ancestor, a
          sharded side, or an unloadable image — the metric diff above
          still stands). *)
  chain : Sw_obs.Lineage.chain option;
      (** Side A's causal chain for the packet behind the first divergent
          event, when the event names one. *)
}

type error =
  | Empty_timeline of string  (** Directory with no readable image. *)
  | No_common_index
      (** The two timelines share no checkpoint index at all. *)
  | Grid_mismatch of { index : int; a_ns : Sw_sim.Time.t; b_ns : Sw_sim.Time.t }
      (** Same index, different simulated time: the runs were checkpointed
          on different grids and cannot be compared. *)
  | No_divergence of { compared : int }
      (** Every shared checkpoint agrees — the runs are (so far)
          observationally identical. *)
  | Image_error of { path : string; error : Image.error }
  | Unloadable of { path : string; reason : string }

val pp_error : Format.formatter -> error -> unit

(** [first_divergence ~a ~b] bisects the checkpoint directories [a] and
    [b]. Only image {e metadata} is read during the search; payloads are
    restored only for the final window analysis. *)
val first_divergence : a:string -> b:string -> (divergence, error) result

(** Human-oriented rendering of a {!divergence} (multi-line). *)
val pp_divergence : Format.formatter -> divergence -> unit
