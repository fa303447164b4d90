(** A window over the last [capacity] structured trace events.

    Components emit {!Event.t} variants and consumers pattern-match or
    pretty-print them. A trace records from creation. Simulation components
    never hold one: they emit through the engine that drives them, whose one
    slot [Sw_sim.Engine.attach_trace] fills, with the idiom

    {[
      if Engine.tracing engine then
        Engine.emit engine (Event.Packet_delivered { ... })
    ]}

    so an untraced run costs one branch per site, with no payload
    allocation and no string formatting.

    The window always spans the last [capacity] emits, but it stores only
    the entries its reader keeps: an export keeps every entry, a lineage
    reader only the kinds {!Lineage.reads} accepts. An emit the window does
    not keep costs one predicate call and leaves nothing behind, so a
    lineage trace of a run dominated by VM exits stays small. Which emits
    fell out of the window ({!dropped}) does not depend on the filter, so a
    filtered trace gives its reader exactly the entries a keep-everything
    trace of the same capacity would. *)

type t

type entry = { at_ns : int; event : Event.t }

(** [create ~capacity ~keep ()] is a window over the last [capacity] emits
    (default 65536) that stores the entries whose event [keep] accepts
    (default: every entry). Storage grows on demand, up to [capacity]
    entries. With [metrics], each emit that falls out of the window is
    additionally counted in a [trace.dropped] registry counter, so exports
    built from that registry are self-describing about truncation. *)
val create :
  ?capacity:int -> ?keep:(Event.t -> bool) -> ?metrics:Registry.t -> unit -> t

(** [emit t ~at_ns ev] advances the window by one emit, dropping the oldest
    emit when the window is full, and stores [ev] when [t] keeps it. *)
val emit : t -> at_ns:int -> Event.t -> unit

val iter : t -> (entry -> unit) -> unit
val fold : ('acc -> entry -> 'acc) -> 'acc -> t -> 'acc

(** Stored entries in emission order (oldest first); a thin wrapper over
    {!fold}. *)
val entries : t -> entry list

(** [clear t] empties the window and zeroes the drop accounting — both the
    trace's own count and its ["trace.dropped"] registry mirror, so the
    two never disagree after a checkpoint restore. *)
val clear : t -> unit

(** Entries stored: at most {!capacity}, fewer when the trace filters. *)
val length : t -> int

(** The window's span, in emits. *)
val capacity : t -> int

(** Emits that fell out of the window since creation (or the last
    {!clear}), whether or not [t] kept them. A consumer seeing
    [dropped t > 0] must treat the trace as a suffix of the run, not the
    whole run — lineage reconstruction, for example, will report chains
    whose proposals predate the window as orphans. *)
val dropped : t -> int

(** [span t ~now ~name f] emits [Span_begin] before and [Span_end] (with the
    elapsed simulated time) after running [f]; the span is recorded even when
    [f] raises. [now] supplies the current simulated time in ns. *)
val span : t -> now:(unit -> int) -> name:string -> (unit -> 'a) -> 'a

val pp_entry : Format.formatter -> entry -> unit
