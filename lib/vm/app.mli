(** Guest applications as deterministic state machines.

    A guest application reacts to events (boot, delivered packets, disk
    completions, timers) with a list of actions. Determinism contract: the
    actions may depend only on the application's own state, the event, and
    the guest's virtual clock — never on real time or ambient randomness.
    StopWatch relies on this: replicas fed the same events at the same
    virtual times must emit identical action sequences (and hence identical
    output packets). *)

type event =
  | Boot  (** Delivered once when the guest starts. *)
  | Packet_in of Sw_net.Packet.t  (** A network interrupt's packet. *)
  | Disk_done of { tag : int }  (** Completion of a tagged disk request. *)
  | Dma_done of { tag : int }  (** Completion of a tagged DMA transfer. *)
  | Timer of { tag : int }  (** A one-shot timer set via {!Set_timer}. *)
  | Tick  (** Periodic PIT timer interrupt; most applications ignore it. *)

type action =
  | Compute of int  (** Retire this many branches before later actions. *)
  | Disk_read of { bytes : int; sequential : bool; tag : int }
  | Disk_write of { bytes : int; sequential : bool; tag : int }
  | Dma_transfer of { bytes : int; tag : int }
      (** A device-memory DMA transfer; completes with [Dma_done]. *)
  | Send of { dst : Sw_net.Address.t; size : int; payload : Sw_net.Packet.payload }
  | Set_timer of { after : Sw_sim.Time.t; tag : int }
      (** Fire a [Timer] event once the guest's virtual clock has advanced by
          [after]. *)

type t = {
  handle : virt_now:Sw_sim.Time.t -> event -> action list;
      (** [virt_now] is the guest's virtual time at the injection point. *)
}

(** A factory builds one fresh application instance per VM replica. *)
type factory = unit -> t

(** An application that ignores every event (idle guest). *)
val idle : factory

(** [stateful ~init ~handle] builds a factory around a pure transition
    function — the recommended way to write applications. *)
val stateful :
  init:'s -> handle:('s -> virt_now:Sw_sim.Time.t -> event -> 's * action list) -> factory
