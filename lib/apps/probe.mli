(** Attack-scenario guest applications (paper Sec. III, V-B, IX).

    [receiver] plays the attacker VM of Fig. 4: it consumes a packet stream
    and measures inter-delivery times on its (virtual) clock — the
    measurement itself is taken by the VMM instrumentation
    ({!Sw_vmm.Vmm.inter_delivery_virts_ms}). With [echo_to], every [echo_every]-th
    delivery triggers an outbound packet, giving an external observer a
    real-time channel to measure (Sec. VI).

    [streamer] plays the victim VM "continuously serving a file": on each
    timer tick it reads from disk and pushes datagrams to a sink, loading its
    machine's CPU, disk, and NIC. *)

(** [receiver ?echo_to ?echo_every ()] builds the attacker guest app. *)
val receiver :
  ?echo_to:Sw_net.Address.t -> ?echo_every:int -> unit -> Sw_vm.App.factory

(** [streamer ~sink ~period ~burst ~bytes_per_packet ?disk_every ()] builds
    the victim guest app: every [period] (virtual) it sends [burst] packets
    of [bytes_per_packet] to [sink], reading 64 KiB from disk every
    [disk_every]-th burst (0 disables disk load). *)
val streamer :
  sink:Sw_net.Address.t ->
  period:Sw_sim.Time.t ->
  burst:int ->
  bytes_per_packet:int ->
  ?disk_every:int ->
  unit ->
  Sw_vm.App.factory

(** A compute-spinning guest used as a collaborating attacker (Sec. IX): it
    simply burns CPU, slowing coresident replicas. Note that under the
    simulator's always-runnable guests this adds no *scheduling* load beyond
    an idle guest; its effect comes from the disk/NIC load options. *)
val load_generator :
  ?sink:Sw_net.Address.t ->
  ?period:Sw_sim.Time.t ->
  ?burst:int ->
  ?disk_every:int ->
  unit ->
  Sw_vm.App.factory
