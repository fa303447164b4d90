(** Discrete-event simulation engine.

    The engine owns the simulated clock, the pending-event queue (a
    hierarchical timer wheel with a heap overflow tier — see {!Wheel}), and
    the simulation's metric registry. Events scheduled for the same instant
    fire in the order they were scheduled, so runs are deterministic.

    The engine's own per-event accounting sits behind the registry's
    {!Sw_obs.Registry.enabled} switch: one load and one branch per
    operation when metrics are off. *)

type t

(** Packed immediate identifying one scheduled event; goes stale when the
    event fires, so a late {!cancel} through it is a safe no-op. *)
type event_id

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

(** A named class of events, for per-kind scheduling metrics. *)
type kind

(** [kind t name] is a handle for events of kind [name] (a metric path
    segment such as ["net.deliver"]) on [t]. Build it once, when the
    scheduling component is built, and pass it to every {!schedule_at}: the
    schedule path then looks nothing up. The kind's metrics register in
    [t]'s registry on the first schedule made with the registry enabled, so
    a kind that is never scheduled exports no [sim.events.<name>.*] entry.
    Two handles with the same name count into the same metrics. *)
val kind : t -> string -> kind

(** [schedule_at ?kind t at f] runs [f] when the clock reaches [at]. Raises
    [Invalid_argument] when [at] is in the past. When [kind] is given the
    engine additionally counts the event under
    [sim.events.<name>.scheduled] and records its scheduling delay in the
    [sim.events.<name>.delay_ns] histogram. Passing a stored
    [kind option] allocates nothing; [~kind:k] boxes [k] per call. *)
val schedule_at : ?kind:kind -> t -> Time.t -> (unit -> unit) -> event_id

(** [schedule_after ?kind t delay f] runs [f] after [delay] (an instant of
    [now + delay]). Raises [Invalid_argument] for negative delays. *)
val schedule_after : ?kind:kind -> t -> Time.t -> (unit -> unit) -> event_id

(** [cancel t id] prevents the event from firing; cancelling an already-fired
    or already-cancelled event is a no-op — in particular it never perturbs
    {!pending}. *)
val cancel : t -> event_id -> unit

(** [step t] fires the next event; [false] when no events remain. *)
val step : t -> bool

(** [run ?until t] fires events until the queue drains or the clock would
    pass [until] (events at exactly [until] do fire). With [until] the clock
    then parks exactly at [until], even when the queue drained early; the
    clock never moves backwards. *)
val run : ?until:Time.t -> t -> unit

(** Number of pending (uncancelled) events. *)
val pending : t -> int

(** Total events fired since creation (the [sim.events.fired] counter). *)
val fired : t -> int
