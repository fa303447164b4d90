(** Deterministic JSON encoding of a {!Snapshot}, written by {!Json}.

    The output is a pure function of the snapshot's contents: metric names
    appear in ascending order, integers print exactly, and floats follow
    {!Json}'s number rule. Two registries that merged to equal snapshots
    therefore serialise byte-identically — the property the bench [-j 1]
    vs [-j N] comparison relies on.

    Schema: a single object mapping each metric path to
    {v
      {"kind":"counter","value":N}
      {"kind":"sum","value":X}
      {"kind":"gauge","value":X}
      {"kind":"histogram","count":N,"total":T,"min":M,"max":M,
       "buckets":[[bound_ns,count],...]}
    v}
    where histogram [buckets] lists only non-empty buckets as
    [[upper bound in ns, count]] pairs in ascending bound order; the
    catch-all bucket's bound prints as [null]. [min]/[max] are [null] when
    [count = 0]. *)

(** Self-description for exported artifacts: which run produced the bytes.
    Every field is optional; absent fields are omitted from the JSON. *)
type meta = {
  seed : int64 option;
  scenario : string option;
  trace_capacity : int option;
  trace_dropped : int option;
      (** Entries the trace ring overwrote — nonzero means the exported
          trace is a suffix of the run ({!Trace.dropped}). *)
  registry_enabled : bool option;
}

val meta :
  ?seed:int64 ->
  ?scenario:string ->
  ?trace_capacity:int ->
  ?trace_dropped:int ->
  ?registry_enabled:bool ->
  unit ->
  meta

(** The meta object alone (fields in declaration order, [None]s omitted,
    the seed through {!Json.of_int64}) — shared with {!Chrome}'s
    [otherData] and the JSONL trace export's first line. *)
val meta_json : meta -> Json.t

(** The one snapshot encoder. Without [meta] the result is the flat metric
    object documented above; with [meta] it becomes
    [{"meta":{...},"metrics":{<flat object>}}], so artifacts carry their
    seed, scenario and truncation state. [Sw_runner.Report.of_metrics] is
    this function without [meta]. *)
val to_json : ?meta:meta -> Snapshot.t -> Json.t

(** [Json.to_string (to_json ?meta snapshot)] (no trailing newline). *)
val to_json_string : ?meta:meta -> Snapshot.t -> string
