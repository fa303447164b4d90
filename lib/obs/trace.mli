(** Bounded ring of structured trace events.

    Replaces the string-blob trace: components emit {!Event.t} variants and
    consumers pattern-match or pretty-print them. Tracing is disabled by
    default; the supported emission idiom is

    {[
      if Trace.active trace then
        Trace.emit_exn tr ~at_ns (Event.Packet_delivered { ... })
    ]}

    (for an [t option] field) or {!emit} on a known sink — so a disabled or
    absent sink costs one branch, with no payload allocation and no string
    formatting. *)

type t

type entry = { at_ns : int; event : Event.t }

(** [create ~capacity ()] keeps at most [capacity] most-recent entries
    (default 65536). With [metrics], overwrites of the oldest entry at
    capacity are additionally counted in a [trace.dropped] registry counter,
    so exports built from that registry are self-describing about
    truncation. *)
val create : ?capacity:int -> ?metrics:Registry.t -> unit -> t

val enable : t -> unit
val enabled : t -> bool

(** [active trace] is true when a sink is attached and enabled — the guard
    call sites use before building an event payload. *)
val active : t option -> bool

(** [emit t ~at_ns ev] appends when [t] is enabled, else does nothing. *)
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
