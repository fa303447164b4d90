(** Hierarchical timer wheel with a heap overflow tier — the engine's
    scheduling core.

    The structure owns a pool of reusable event records, kept as parallel
    arrays (an int array each for key, sequence number and chain link, and
    one closure array), and files them in three tiers:

    - a {b ready heap}: a small binary heap of record indices, ordered by
      [(key, seq)], holding every pending event whose key is below the
      drained horizon;
    - the {b wheel}: [levels] rings of [2^5] slots each, level [l] covering
      [2^(13 + 5l)] ns per slot (8.192 µs at level 0), into which
      near-future events (the overwhelming majority: periodic timers, slice
      ticks, bounded-offset deliveries) are filed in O(1);
    - an {b overflow tier}: the binary {!Heap}, for the rare events beyond
      the top level's 2^43 ns (~2.4 h) span, cascaded back in as the
      horizon approaches them.

    Slots only stage events; everything is funnelled through the ready heap
    before it is handed out, so the firing order is the engine's historical
    contract — strictly nondecreasing [key] with FIFO [seq] tiebreak —
    regardless of which tier an event waited in or how it cascaded.

    {b Boundary invariant} (hashed hierarchical wheels, Varghese & Lauck,
    SOSP '87): every record at a level [l >= 1] starts at or after the
    horizon's next level-[l] boundary. The horizon steps over no boundary
    whose slot holds a record, and whenever it lands on a boundary it
    cascades the coarse slots that start exactly there. So a refill has two
    paths:

    - {b fast}: the first occupied level-0 slot before the next level-1
      boundary is the earliest in the wheel; one mask-and-ctz finds it and
      no other level is read. It alone serves 70 % / 90 % / 93 % of refills on
      perfbench's kv_base / fig4_leak / fleet_resume;
    - {b slow}: everything starts at or after that boundary, so the
      horizon jumps to the earliest slot start over all levels (read from
      per-level first-slot starts cached on file and on take), cascades
      what starts there and goes round again.

    Events cannot be cancelled: every added event fires. Records are
    recycled through a free list, so scheduling allocates nothing on the
    steady-state path. *)

type t

val create : unit -> t

(** [add t ~key fn] files [fn] under [key] (an absolute instant in ns,
    assumed [>= ] every key already popped). Sequence numbers are assigned
    in call order, so equal keys fire FIFO. *)
val add : t -> key:Time.t -> (unit -> unit) -> unit

(** [advance t now] snaps the drained horizon up to [now]'s granule when —
    and only when — the wheel holds no records at all; otherwise a no-op.
    The horizon never moves backwards. Run loops call this after parking
    the clock at a limit with nothing left to fire, so that events
    scheduled next (e.g. cross-shard injections after a barrier) are filed
    relative to the parked instant instead of a stale cursor — without
    this, a shard idling across many lookahead windows would eventually
    push every fresh event past the top level's span and into the
    overflow heap. (time, seq) order is unaffected: the wheel is empty, so
    there is nothing to reorder against. *)
val advance : t -> Time.t -> unit

(** [next_key t] is the key of the earliest pending event, or [max_int]
    when nothing is pending (real keys fit in 62 bits, so the sentinel is
    never one) — an allocation-free peek for run loops. It moves the next
    events into the ready heap when that is empty, which is where {!pop}
    takes them from. *)
val next_key : t -> Time.t

(** Pops the event whose key the preceding {!next_key} gave (the earliest
    pending one, also when events were added in between) and returns its
    closure, recycling its record. It does not look for events itself: call
    it only after a {!next_key} that returned a key, with no other [pop]
    in between. Nothing is allocated: callers test for a pending event with
    {!next_key} instead of matching on an option. Raises
    [Invalid_argument] when no event is ready. *)
val pop : t -> unit -> unit
