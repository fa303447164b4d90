(** Chrome trace-event ("Trace Event Format") export, loadable in
    ui.perfetto.dev or chrome://tracing.

    Track model: each guest VM is a process named ["vm<N>"] with one thread
    per replica (["r<N>"]); ingress/egress share a synthetic ["net"]
    process; fault-schedule events, spans and messages get their own
    processes so they never interleave with guest tracks; {!Profile} timers
    render as counter tracks under ["profile"].

    Protocol steps (proposal, median, delivery, ingress stamp, egress
    release) become thin duration events ([ph:"X"], 1 µs) so flow arrows
    have slices to bind to; other typed events become instants with their
    payloads as [args]. Causal lineage becomes flow arrows ([ph:"s"]/
    [ph:"f"]) — one edge per hop: ingress→own proposal, each recorded
    proposal→median adoption, adoption→delivery — with ids assigned in
    emission order.

    Determinism: timestamps are simulated nanoseconds printed as exact
    microsecond decimals, flow ids are assigned by a deterministic walk of
    the entries, object fields print in fixed order, and strings and
    [otherData] go through {!Json}'s writer — so the export is
    a pure function of the trace (plus [profile], which carries wall-clock
    data and must be [None] for byte-compared artifacts). *)

(** [to_json ?meta ?profile entries] renders the entries (in emission
    order, e.g. {!Trace.entries}) as a complete JSON trace object:
    [{"traceEvents":[...],"displayTimeUnit":"ms","otherData":{meta}}].
    [meta] (see {!Export.meta}) lands under [otherData]; [profile] appends
    one cumulative counter sample per timer. *)
val to_json :
  ?meta:Export.meta -> ?profile:Profile.t -> Trace.entry list -> string
