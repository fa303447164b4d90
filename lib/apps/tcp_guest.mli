(** Adapter running {!Tcp} endpoints inside a deterministic guest
    application.

    A guest app owns one [Tcp_guest.t], forwards every {!Sw_vm.App.event} to
    {!handle}, and reacts to the returned connection events. All effects come
    back as guest actions to append to the app's action list. Timer tags at
    or above {!tag_base} are reserved for this adapter. *)

type conn_key = { peer : Sw_net.Address.t; conn : int }

type conn_event =
  | Accepted of conn_key  (** A passive-open connection completed. *)
  | Msg of { key : conn_key; payload : Sw_net.Msg.t; bytes : int }
  | Conn_closed of conn_key

type t

val create : ?config:Tcp.config -> unit -> t
val tag_base : int

(** [handle t ev] consumes a guest event. [None] means the event does not
    belong to the TCP adapter (the app should process it itself); otherwise
    the connection events and the actions to emit. Unknown-connection [Syn]
    segments create passive endpoints automatically. *)
val handle : t -> Sw_vm.App.event -> (conn_event list * Sw_vm.App.action list) option

(** [send t key ~payload ~bytes] enqueues an application message. *)
val send : t -> conn_key -> payload:Sw_net.Msg.t -> bytes:int -> Sw_vm.App.action list
