(** The egress node (paper Sec. VI): receives each output packet tunnelled
    from every replica of a guest VM and forwards it to its real destination
    upon the arrival of the copy exhibiting the median output timing (the
    2nd of 3 copies; generally the (m+1)/2-th of m). Each release emits
    {!Sw_obs.Event.Egress_released} through the engine's trace and counts
    in [net.egress.forwarded].

    Output vote: deterministic replicas always emit identical packets, so a
    copy that disagrees with the one held for the same sequence number
    exposes replica-state divergence (the deterministic-output property of
    Sec. VI); it counts in [net.egress.mismatches]. *)

type t

(** Creates the node and registers it at {!Address.Egress}.

    Memory note: a packet's vote entry is retired when all m copies have
    arrived. With [vote_expiry] set, an entry is additionally retired
    [vote_expiry] after its first copy created it, whether or not it ever
    reached the release rank — so under sustained tunnel loss or a crashed
    replica the vote table holds only the entries younger than the expiry
    span; retirements are counted in [net.egress.expired_votes]. Without it
    (the default), incomplete entries accumulate for the lifetime of the run
    (the tunnels are reliable in the paper — TCP — so loss there is an
    experiment-only condition). *)
val create : ?vote_expiry:Sw_sim.Time.t -> Network.t -> t

(** [register_vm t ~vm ~replicas] declares the replica count of [vm]
    (odd). *)
val register_vm : t -> vm:int -> replicas:int -> unit

(** [set_replicas t ~vm ~replicas] changes the voting population of an
    already-registered VM — called when its replica group degrades to a
    smaller quorum (or recovers). Entries already released under the old
    population are left to complete or expire. *)
val set_replicas : t -> vm:int -> replicas:int -> unit
