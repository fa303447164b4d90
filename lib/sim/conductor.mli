(** Conservative parallel coordination of several {!Engine}s ("shards").

    A conductor owns an array of engines, one per shard, and drives them in
    lookahead rounds: every shard runs freely up to its own window end,
    then all shards synchronise at a barrier and exchange the timestamped
    cross-shard messages posted during the round.

    {b Lookahead matrix.} The bound is per shard pair: [L(j,i)] is the
    smallest latency any link can impose on a hop from shard [j] into
    shard [i], and shard [i]'s next window runs to
    [min over j <> i of (horizon j + L(j,i))]. A message posted by [j]
    departs at or after [horizon j] and so arrives at or after
    [horizon j + L(j,i)] — never inside a window already running. Shards
    separated by slow links synchronise rarely; only genuinely close pairs
    pay a tight cadence. A uniform matrix (the [~lookahead] scalar)
    recovers the classic global-minimum protocol.

    {b Determinism.} Shard execution within a round touches no state shared
    with other shards; the only inter-shard channel is {!post}. At each
    barrier the conductor merges every destination's inbox in
    [(arrival, source shard, source sequence)] order — a total order — and
    injects in that order at the start of the next round, so the
    destination engine's own [(time, seq)] tiebreak reproduces exactly the
    same firing order whatever the domain scheduling was: every worker
    count produces a byte-identical simulation.

    {b Workers.} Each {!run} takes [k] workers, the lesser of the shard
    count and [Domain.recommended_domain_count ()]; the calling domain is
    worker 0 and spawns the other [k - 1], joined before {!run} returns.
    Worker [w] runs shards [[w*n/k, (w+1)*n/k)] in index order, and owns
    their engines (and everything hanging off them) during a round;
    [post ~src:i] may only be called from the domain whose block holds
    [i]. Between rounds everything is owned by the caller. The barrier
    spins on atomics, then sleeps on a condvar; with one worker there is
    none.

    {b Instrumentation.} Rounds and per-pair exchanged-message counts go
    to shard 0's registry as [sim.shard.windows] (a {!run} ending inside a
    window adds a round) and [sim.shard.exchanged.s<i>.s<j>]; like all of
    [sim.*] they differ across shard layouts ({!Sw_obs.Snapshot.without_sim}).
    The main domain's barrier wait, wall time, goes to the
    [conductor.barrier] timer of shard 0's engine profile
    ({!Sw_obs.Profile.record_ns}), never to a registry.

    {b Checkpointability.} A quiescent conductor (between {!run} calls) is
    plain marshalable data: the barrier's atomics, mutex and condition
    variables belong to the per-{!run} gang, never to [t], so [Marshal]
    with closures captures a sharded cloud — pending cross-shard inboxes
    included — without meeting an unmarshalable custom block. Nor is the
    worker count stored: a cloud restored elsewhere uses its new host's. *)

type t

(** [create ?matrix ~lookahead engines] builds a conductor over the shards
    [engines]. [matrix.(j).(i)] bounds hops from shard [j] into shard [i]
    (the diagonal is ignored); without [matrix], a uniform matrix is built
    from the scalar [lookahead]. Off-diagonal entries (or [lookahead], when
    it is the source) must be positive when there is more than one
    shard. *)
val create :
  ?matrix:Time.t array array ->
  lookahead:Time.t ->
  Engine.t array ->
  t

val shards : t -> int

(** Cross-shard messages exchanged so far (across all barriers). *)
val exchanged : t -> int

(** The lookahead bound in force for [src -> dst] hops. *)
val lookahead : t -> src:int -> dst:int -> Time.t

(** [post t ~src ~dst ~at fn] queues [fn] for injection into shard [dst]'s
    engine at absolute time [at] (scheduled there under kind ["xshard"]).
    Must be called during a round, from shard [src]'s worker. Raises
    [Invalid_argument] — naming the source shard, destination shard,
    arrival instant, and the destination's window end — when [at] precedes
    the end of the destination's current window: that would violate the
    lookahead contract. *)
val post : t -> src:int -> dst:int -> at:Time.t -> (unit -> unit) -> unit

(** [run ?workers t ~until] advances every shard to exactly [until] (each
    engine parks there, as {!Engine.run}), round by round. May be called
    repeatedly; rounds resume where the previous call stopped. [workers]
    (clamped to [[1, shards]]) overrides the cores; every count gives the
    same simulation. A handler's exception is re-raised once the workers
    have joined. *)
val run : ?workers:int -> t -> until:Time.t -> unit
