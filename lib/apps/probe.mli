(** Attack-scenario guest applications (paper Sec. III, V-B, IX).

    [receiver] plays the attacker VM of Fig. 4: it consumes a packet stream
    and measures inter-delivery times on its (virtual) clock — the
    measurement itself is taken by the VMM instrumentation
    ({!Sw_vmm.Vmm.inter_delivery_virts_ms}). With [echo_to], every
    delivery triggers an outbound packet, giving an external observer a
    real-time channel to measure (Sec. VI).

    [streamer] plays the victim VM "continuously serving a file": on each
    timer tick it reads from disk and pushes datagrams to a sink, loading its
    machine's CPU, disk, and NIC. *)

(** [receiver ?echo_to ()] builds the attacker guest app. *)
val receiver : ?echo_to:Sw_net.Address.t -> unit -> Sw_vm.App.factory

(** [streamer ~sink ~period ~burst ~bytes_per_packet] builds the victim
    guest app: every [period] (virtual) it sends [burst] packets of
    [bytes_per_packet] to [sink], reading 64 KiB from disk every second
    burst. *)
val streamer :
  sink:Sw_net.Address.t ->
  period:Sw_sim.Time.t ->
  burst:int ->
  bytes_per_packet:int ->
  Sw_vm.App.factory

(** [load_generator ~sink] is the collaborating attacker of Sec. IX, at the
    paper's one design point: every 1 ms (virtual) a 64 KiB random disk
    read and 18 packets of 1400 bytes to [sink], which out-loads the
    victim's 72 per 5 ms through the device models of the machines it
    shares. Under the simulator's always-runnable guests it adds no
    *scheduling* load beyond an idle guest; its effect is that disk and NIC
    load. *)
val load_generator : sink:Sw_net.Address.t -> Sw_vm.App.factory
