(** Wall-clock self-profiling: per-subsystem accumulating timers, read
    from the project's one wall clock.

    Where {!Registry} measures the simulated world, [Profile] measures the
    simulator itself: real time spent in engine dispatch, network delivery,
    the VMM's median machinery, disk completions, and, when the conductor
    runs more than one worker, the barrier wait ([conductor.barrier] on
    shard 0's engine profile). Each subsystem obtains a named {!timer} at
    construction and wraps its hot section in {!time}.

    {!now_ns} is the only function in the libraries that reads wall time.
    It is monotonic, so spans never run backwards. Wall time is
    non-deterministic: it lives here, never in a {!Registry}, and never
    feeds byte-compared exports ({!Chrome.to_json} renders it as separate
    counter tracks).

    Profiling is {b off} by default: a disabled profile costs one load and
    one branch per {!time} call — no clock read, no accumulation.
    {!record_ns} accumulates whatever the flag says. *)

type t

(** One named accumulator: total wall nanoseconds and call count. *)
type timer

(** [create ()] makes a profile, disabled unless [enabled] is [true]. *)
val create : ?enabled:bool -> unit -> t

val enabled : t -> bool
val set_enabled : t -> bool -> unit

(** [timer t name] returns the accumulator registered at [name], creating
    it on first use (names follow the {!Registry} path alphabet
    [A-Za-z0-9._-]). Handles are create-or-return: same name, same cell. *)
val timer : t -> string -> timer

(** [time t tm f] runs [f ()], adding its wall-clock duration to [tm] when
    [t] is enabled; a bare call to [f] otherwise. The duration is recorded
    even when [f] raises. *)
val time : t -> timer -> (unit -> 'a) -> 'a

(** The monotonic clock in nanoseconds; only differences mean anything. *)
val now_ns : unit -> int

(** [record_ns tm ns] adds an externally measured duration (one call). *)
val record_ns : timer -> int -> unit

val total_ns : timer -> int
val count : timer -> int

(** All timers as [(name, total_ns, count)], ascending name order. *)
val to_list : t -> (string * int * int) list

(** Zero every accumulator in place (handles stay valid). *)
val reset : t -> unit
