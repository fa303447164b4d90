(** Hierarchical timer wheel with a heap overflow tier — the engine's
    scheduling core.

    The structure owns a pool of reusable event records and keeps them in
    three tiers:

    - a {b ready heap}: a small binary heap, ordered by [(key, seq)], holding
      every pending event whose key is below the drained horizon;
    - the {b wheel}: [levels] rings of [2^5] slots each, level [l] covering
      [2^(9 + 5l)] ns per slot, into which near-future events (the
      overwhelming majority: periodic timers, slice ticks, bounded-offset
      deliveries) are filed in O(1);
    - an {b overflow tier}: the existing binary {!Heap}, for the rare events
      beyond the top level's ~550 s span, cascaded back in as the horizon
      approaches them.

    Slots only stage events; everything is funnelled through the ready heap
    before it is handed out, so the firing order is the engine's historical
    contract — strictly nondecreasing [key] with FIFO [seq] tiebreak —
    regardless of which tier an event waited in or how it cascaded.

    Event records are recycled through a free list and addressed by integer
    {!handle}s carrying a generation stamp: scheduling allocates nothing on
    the steady-state path, and a handle whose record has since fired (and
    possibly been reused) is recognised as stale, making late {!cancel}s
    safe no-ops. *)

type t

(** A claim ticket for one scheduled event. Handles are plain immediates
    (no allocation) and become stale once the event fires or its
    cancellation is collected. *)
type handle

val create : unit -> t

(** [add t ~key fn] files [fn] under [key] (an absolute instant in ns,
    assumed [>= ] every key already popped) and returns a handle for
    {!cancel}. Sequence numbers are assigned in call order, so equal keys
    fire FIFO. *)
val add : t -> key:Time.t -> (unit -> unit) -> handle

(** [cancel t h] tombstones the event if [h] is still current and pending;
    returns [false] — and changes nothing — when the event already fired,
    was already cancelled, or [h] is stale. Tombstoned records are
    reclaimed lazily as the tiers drain past them. *)
val cancel : t -> handle -> bool

(** [advance t now] snaps the drained horizon up to [now]'s granule when —
    and only when — the wheel holds no records at all; otherwise a no-op.
    The horizon never moves backwards. Run loops call this after parking
    the clock at a limit with nothing left to fire, so that events
    scheduled next (e.g. cross-shard injections after a barrier) are filed
    relative to the parked instant instead of a stale cursor — without
    this, a shard idling across many lookahead windows would eventually
    push every fresh event past the top level's ~550 s span and into the
    overflow heap. (time, seq) order is unaffected: the wheel is empty, so
    there is nothing to reorder against. *)
val advance : t -> Time.t -> unit

(** [next_key t] is the key of the earliest pending event, or [max_int]
    when nothing is pending (real keys fit in 62 bits, so the sentinel is
    never one) — an allocation-free peek for run loops. *)
val next_key : t -> Time.t

(** Pops the earliest pending event, the one whose key {!next_key} gives,
    and returns its closure, recycling its record (the handle goes stale
    before the closure is even called). Nothing is allocated: callers
    test for a pending event with {!next_key} instead of matching on an
    option. Raises [Invalid_argument] when nothing is pending. *)
val pop : t -> unit -> unit

(** Number of records currently held (pending plus uncollected tombstones);
    [0] means fully drained. *)
val length : t -> int
