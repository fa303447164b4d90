(** Discrete-event simulation engine.

    The engine owns the simulated clock, the pending-event queue (a
    hierarchical timer wheel with a heap overflow tier — see {!Wheel}), and
    the simulation's metric registry and trace sink. Events scheduled for
    the same instant fire in the order they were scheduled, so runs are
    deterministic. A scheduled event cannot be cancelled: it fires. *)

type t

(** [create ~seed ~metrics ()] makes an engine whose clock starts at
    {!Time.zero} and whose root PRNG is seeded with [seed]. The engine
    records its own bookkeeping ([sim.events.*], [sim.queue.depth]) in
    [metrics] (a private registry when omitted) and hands the registry to
    components via {!metrics}. [profile] (a disabled private instance when
    omitted) collects wall-clock self-profiling: the engine times every
    event dispatch under ["engine.dispatch"], and components reached
    through this engine hang their own timers off the same instance via
    {!profile}. *)
val create :
  ?seed:int64 -> ?metrics:Sw_obs.Registry.t -> ?profile:Sw_obs.Profile.t ->
  unit -> t

(** Current simulated time. *)
val now : t -> Time.t

(** [rng t] derives a fresh generator from the engine's root PRNG. Call once
    per stochastic component at setup so later scheduling changes cannot
    perturb the stream assignment. *)
val rng : t -> Prng.t

(** The registry this engine (and every component built on it) records
    into. *)
val metrics : t -> Sw_obs.Registry.t

(** The wall-clock profile this engine times dispatches into; disabled
    unless one was passed to {!create} (or enabled later). *)
val profile : t -> Sw_obs.Profile.t

(** [attach_trace t tr] makes [tr] the sink every component built on [t]
    emits its typed events into, from the next event on. An engine starts
    with no sink. *)
val attach_trace : t -> Sw_obs.Trace.t -> unit

(** [tracing t] is true when a sink is attached: the guard a component
    tests before building an event payload, so an untraced run allocates
    nothing and formats nothing. *)
val tracing : t -> bool

(** [emit t ev] records [ev] in the attached sink, stamped with {!now};
    nothing when there is none. *)
val emit : t -> Sw_obs.Event.t -> unit

(** A named class of events, for per-kind scheduling metrics. *)
type kind

(** [kind t name] is a handle for events of kind [name] (a metric path
    segment such as ["net.deliver"]) on [t]. Build it once, when the
    scheduling component is built, and pass it to every {!schedule_at}: the
    schedule path then looks nothing up. The kind's metrics register in
    [t]'s registry on its first schedule, so a kind that is never scheduled
    exports no [sim.events.<name>.*] entry.
    Two handles with the same name count into the same metrics. *)
val kind : t -> string -> kind

(** [schedule_at ?kind t at f] runs [f] when the clock reaches [at]. Raises
    [Invalid_argument] when [at] is in the past. When [kind] is given the
    engine additionally counts the event under
    [sim.events.<name>.scheduled] and records its scheduling delay in the
    [sim.events.<name>.delay_ns] histogram. Passing a stored
    [kind option] allocates nothing; [~kind:k] boxes [k] per call. *)
val schedule_at : ?kind:kind -> t -> Time.t -> (unit -> unit) -> unit

(** [schedule_after ?kind t delay f] runs [f] after [delay] (an instant of
    [now + delay]). Raises [Invalid_argument] for negative delays. *)
val schedule_after : ?kind:kind -> t -> Time.t -> (unit -> unit) -> unit

(** [run ?until t] fires events until the queue drains or the clock would
    pass [until] (events at exactly [until] do fire). With [until] the clock
    then parks exactly at [until], even when the queue drained early; the
    clock never moves backwards. *)
val run : ?until:Time.t -> t -> unit

(** Number of pending events. *)
val pending : t -> int

(** Total events fired since creation (the [sim.events.fired] counter). *)
val fired : t -> int
