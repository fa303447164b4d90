(** Simulated time.

    A value of type {!t} is a count of nanoseconds held in an immediate
    [int]. The same representation is used both for instants (nanoseconds
    since the start of the simulation) and for spans (durations); which one
    is meant is documented at each use site. Virtual time (the per-guest
    clock of Eqn. 1 in the paper) also uses this type: it is a
    nanosecond-denominated clock, just not synchronised with the
    simulation's real time.

    A 63-bit [int] spans [±2^62] ns, about ±146 years, which is also the
    bound {!Wheel} assumes. Because the value is immediate, storing a time
    in a record or passing it between modules allocates nothing. Branch
    counts are plain [int]s for the same reason. The few products that can
    pass [2^62] while still inside 64 bits (the virtual clock's
    [delta * slope] and the guest clocks' [virt * rate]) are computed in a
    function-local 64-bit expression where they occur; see
    [Sw_vm.Virtual_time] and [Sw_vm.Clocks]. Boxed 64-bit integers remain
    only where 64 bits are the point: PRNG seeds and state, the JSON seed
    codec, and checkpoint image framing. *)

type t = int

val zero : t
val ns : int -> t
val us : int -> t
val ms : int -> t
val s : int -> t

(** [of_float_s x] is [x] seconds, rounded to the nearest nanosecond. *)
val of_float_s : float -> t

(** [of_float_ms x] is [x] milliseconds, rounded to the nearest nanosecond. *)
val of_float_ms : float -> t

val to_float_s : t -> float
val to_float_ms : t -> float
val to_float_us : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val mul_int : t -> int -> t
val div_int : t -> int -> t

(** [scale t x] is [t] multiplied by the float [x], rounded. *)
val scale : t -> float -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val is_negative : t -> bool

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

(** Pretty-prints with an adaptive unit, e.g. ["1.500ms"]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
