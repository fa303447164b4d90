(** Coordination state for the replicas of one guest VM: virtual-time skew
    limiting ("slow the fastest replica"), epoch-based virtual-clock
    resynchronisation, and divergence accounting.

    The group object is shared by the VMMs hosting the replicas, but all
    inter-replica information flow it models (epoch reports) still travels as
    real network messages; the shared object only holds each member's locally
    known state. *)

type mode = Stopwatch | Baseline

type t
type member

(** [create ?metrics ~vm ~config ~mode ()] registers the group's divergence
    and skew-block counters ([vm<id>.divergences], [vm<id>.skew_blocks]) in
    [metrics] — the simulation registry when deployed by the cloud, a private
    one when omitted (standalone tests). *)
val create :
  ?metrics:Sw_obs.Registry.t -> vm:int -> config:Config.t -> mode:mode -> unit -> t
val vm : t -> int
val mode : t -> mode
val config : t -> Config.t

(** [add_member t ~machine ~wake ~apply_slope ~send_report] registers the
    next replica (ids assigned 0, 1, ...). [wake] re-polls the hosting
    machine's scheduler; [apply_slope] re-parameterises the local guest's
    virtual clock; [send_report] transmits an epoch report payload to the
    peer VMMs. Raises when the group is already full. *)
val add_member :
  t ->
  machine:int ->
  wake:(unit -> unit) ->
  apply_slope:(at_instr:int -> slope_ns_per_branch:float -> unit) ->
  send_report:(epoch:int -> d:Sw_sim.Time.t -> r:Sw_sim.Time.t -> unit) ->
  member

val replica_id : member -> int
val machine_of : member -> int

(** The member with the given replica id, if registered. *)
val member_by_id : t -> int -> member option

(** Latest virtual time reported by this member (its last VM exit). *)
val member_virt : member -> Sw_sim.Time.t

(** Whether the group has all [config.replicas] members. *)
val complete : t -> bool

(** [note_exit t m ~now ~virt ~instr] records a VM exit: updates skew
    blocking across the group and, when [instr] crosses an epoch boundary,
    emits this member's epoch report and blocks it until the epoch
    resolves. *)
val note_exit :
  t -> member -> now:Sw_sim.Time.t -> virt:Sw_sim.Time.t -> instr:int -> unit

(** True when the member must not run (skew-blocked or epoch-blocked). *)
val blocked : t -> member -> bool

(** Delivery of a peer's epoch report at this member's VMM. *)
val receive_report :
  t ->
  at:member ->
  from_replica:int ->
  epoch:int ->
  d:Sw_sim.Time.t ->
  r:Sw_sim.Time.t ->
  unit

(** Records a synchrony violation (a median delivery time already passed —
    paper footnote 4). *)
val record_divergence : t -> unit

val divergences : t -> int

(** Epochs fully resolved so far (minimum over members). *)
val epochs_resolved : t -> int

(** Times the skew limiter has descheduled a (newly) fastest replica. *)
val skew_blocks : t -> int

(** Median of an odd-length array of times. *)
val median_time : Sw_sim.Time.t array -> Sw_sim.Time.t

(** {1 Graceful degradation}

    The watchdog ejects unresponsive members; the group then votes over the
    largest odd quorum the survivors can field (the active members with the
    lowest replica ids) instead of wedging on the missing reports. A
    restarted replica rejoins through {!reinstate} after its VMM has resynced
    its state from a survivor. *)

(** Whether the member is a group participant (not ejected). *)
val active : member -> bool

(** Real time of the member's last sign of life (VM exit, heartbeat, or
    coordination message observed by a peer). *)
val last_seen : member -> Sw_sim.Time.t

(** [note_seen t m ~now] advances [m]'s liveness timestamp (monotone). *)
val note_seen : t -> member -> now:Sw_sim.Time.t -> unit

val active_count : t -> int

(** Current voting-population size: the largest odd number of active
    members ([0] when none are active). *)
val quorum : t -> int

(** Replica ids of the current voters — the [quorum t] active members with
    the lowest ids, ascending. *)
val quorum_ids : t -> int list

(** [eject t m ~now] removes [m] from the voting population: recomputes skew
    over the survivors, re-attempts epoch resolution over the new quorum, and
    notifies {!on_membership_change} listeners. Idempotent. *)
val eject : t -> member -> now:Sw_sim.Time.t -> unit

(** [reinstate t m ~now ~virt ~like] returns an ejected member to the
    group at virtual time [virt], adopting the epoch position and report
    buffer of the active survivor [like] (the resync barrier — the caller
    must already have rebuilt the member's guest to match). Raises if [m] is
    active or [like] is not. *)
val reinstate :
  t -> member -> now:Sw_sim.Time.t -> virt:Sw_sim.Time.t -> like:member -> unit

(** [on_membership_change t f] registers [f] to run after every {!eject} /
    {!reinstate}, once group state is consistent. Listeners run in
    registration order. *)
val on_membership_change : t -> (unit -> unit) -> unit

(** Members ejected so far ([vm<id>.ejections]). *)
val ejections : t -> int

(** Members reinstated so far ([vm<id>.reintegrations]). *)
val reintegrations : t -> int

(** Total real time the group has spent with at least one ejected member,
    in nanoseconds, including the currently open window (the closed-window
    total lives in the [vm<id>.degraded_ns] sum). *)
val degraded_ns : t -> now:Sw_sim.Time.t -> float
