(** A TCP-like reliable byte-stream transport as a pure state machine.

    The same machine runs inside deterministic guest applications (via
    {!Tcp_guest}) and on external hosts (via {!Tcp_host}); it communicates
    with its environment only through explicit inputs and outputs, never
    through ambient time or randomness, so guest replicas stay in lockstep.

    Modelled behaviour — the parts that matter for StopWatch's costs:
    three-way handshake; segmentation at the MSS; a congestion window opening
    from [init_cwnd_segs] by slow start up to [max_window]; cumulative
    acknowledgements with delayed ACKs (every [ack_every] segments or after
    [delayed_ack]); optional Nagle coalescing of sub-MSS messages; in-order
    delivery with a reordering buffer. Loss recovery is not modelled: the
    simulated fabric is lossless and FIFO per link (jitter can still reorder
    packets across links, hence the buffer).

    Application payloads ride the stream as sized messages: a message's
    payload is attached to the segment carrying its last byte and delivered
    when the receive stream reaches it. *)

type config = {
  mss : int;
  header : int;  (** Per-segment wire overhead. *)
  max_window : int;  (** Send-window cap in bytes. *)
  init_cwnd_segs : int;
  ack_every : int;  (** ACK after this many unacknowledged segments. *)
  delayed_ack : Sw_sim.Time.t;  (** Delayed-ACK timeout. *)
  nagle : bool;
}

val default_config : config

(** Wire size of a segment ({!Sw_net.Msg.seg}, carried as
    [Sw_net.Packet.Tcp]). *)
val seg_size : config -> Sw_net.Msg.seg -> int

type input =
  | Open  (** Active open (initiator side). *)
  | Seg_in of Sw_net.Msg.seg
  | Send_msg of { payload : Sw_net.Msg.t; bytes : int }
  | Timer_fired of int
  | Close

type output =
  | Emit of Sw_net.Msg.seg
  | Deliver of { payload : Sw_net.Msg.t; bytes : int }
  | Set_timer of { id : int; after : Sw_sim.Time.t }
  | Connected
  | Closed

type t

(** [create ~config ~conn ~initiator] makes one endpoint of connection
    [conn]. Exactly one side must be the initiator. *)
val create : config:config -> conn:int -> initiator:bool -> t

val conn : t -> int
val is_established : t -> bool
val bytes_delivered : t -> int
val bytes_acked : t -> int

(** Drive the machine; outputs must be performed in order. *)
val step : t -> input -> output list
