(** Bounded ring of structured trace events.

    Components emit {!Event.t} variants and consumers pattern-match or
    pretty-print them. A trace records from creation. Simulation components
    never hold one: they emit through the engine that drives them, whose one
    slot [Sw_sim.Engine.attach_trace] fills, with the idiom

    {[
      if Engine.tracing engine then
        Engine.emit engine (Event.Packet_delivered { ... })
    ]}

    so an untraced run costs one branch per site, with no payload
    allocation and no string formatting. *)

type t

type entry = { at_ns : int; event : Event.t }

(** [create ~capacity ()] keeps at most [capacity] most-recent entries
    (default 65536). With [metrics], overwrites of the oldest entry at
    capacity are additionally counted in a [trace.dropped] registry counter,
    so exports built from that registry are self-describing about
    truncation. *)
val create : ?capacity:int -> ?metrics:Registry.t -> unit -> t

(** [emit t ~at_ns ev] appends [ev], overwriting the oldest entry when the
    ring is full. *)
val emit : t -> at_ns:int -> Event.t -> unit

val iter : t -> (entry -> unit) -> unit
val fold : ('acc -> entry -> 'acc) -> 'acc -> t -> 'acc

(** Entries in emission order (oldest first); a thin wrapper over {!fold}. *)
val entries : t -> entry list

(** [clear t] empties the ring and zeroes the drop accounting — both the
    ring's own counter and its ["trace.dropped"] registry mirror, so the
    two never disagree after a checkpoint restore. *)
val clear : t -> unit

val length : t -> int

(** The ring's fixed capacity. *)
val capacity : t -> int

(** Entries lost to ring overwrites since creation (or the last {!clear}).
    A consumer seeing [dropped t > 0] must treat the trace as a suffix of
    the run, not the whole run — lineage reconstruction, for example, will
    report chains whose proposals predate the ring's oldest entry as
    orphans. *)
val dropped : t -> int

(** [span t ~now ~name f] emits [Span_begin] before and [Span_end] (with the
    elapsed simulated time) after running [f]; the span is recorded even when
    [f] raises. [now] supplies the current simulated time in ns. *)
val span : t -> now:(unit -> int) -> name:string -> (unit -> 'a) -> 'a

val pp_entry : Format.formatter -> entry -> unit
