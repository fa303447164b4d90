(** The guest's virtual clock (paper Sec. IV, Eqn. 1):

    virt(instr) = slope * instr + start

    computed in fixed point (nanoseconds scaled by 2^20 per branch) so that
    all replicas derive bit-identical virtual times from the same branch
    count. Branch counts, the slope and virtual times are immediate [int]s.
    The two products that can pass [2^62], [delta * slope] in {!virt_at}
    and [delta_virt lsl 20] in {!instr_for_virt}, are computed exactly in
    a function-local 64-bit expression that the compiler keeps unboxed:
    the results are a 64-bit clock's, bit for bit, and nothing is
    allocated. Epoch resynchronisation replaces the parameters at an exact
    branch-count boundary: the new [start] is the old clock's value there, so
    the clock stays continuous and monotone while [slope] is clamped to the
    configured [[l, u]] range. *)

type t

(** [create ~start ~slope_ns_per_branch ()] begins the clock at virtual time
    [start] for branch count 0. *)
val create : start:Sw_sim.Time.t -> slope_ns_per_branch:float -> unit -> t

(** Virtual time after retiring [instr] branches (monotone in [instr]).
    Raises [Invalid_argument] when [instr] precedes the instant of the last
    parameter change. *)
val virt_at : t -> int -> Sw_sim.Time.t

(** Current slope in ns/branch (after fixed-point rounding). *)
val slope_ns_per_branch : t -> float

(** [set_slope t ~at_instr ~slope_ns_per_branch] re-parameterises: the new
    segment starts at [at_instr] with [start = virt_at t at_instr]. Raises
    [Invalid_argument] when [at_instr] precedes the previous change. *)
val set_slope : t -> at_instr:int -> slope_ns_per_branch:float -> unit

(** [instr_for_virt t v] is the smallest branch count whose virtual time is
    [>= v], relative to the current parameter segment (used to plan wakeups);
    [max_int] when the slope is 0. *)
val instr_for_virt : t -> Sw_sim.Time.t -> int

(** [clamped_slope ~l ~u x] applies the paper's [[l, u]] clamp. *)
val clamped_slope : l:float -> u:float -> float -> float
