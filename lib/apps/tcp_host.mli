(** Adapter running {!Tcp} endpoints on an external host (client side).

    Attach once per host; it takes over the host's packet handler, routing
    TCP segments to their connections and dropping everything else. *)

type t
type conn

val attach :
  Stopwatch.Host.t ->
  ?config:Tcp.config ->
  unit ->
  t

val host : t -> Stopwatch.Host.t

(** [connect t ~dst ~on_msg ()] actively opens a connection to [dst]
    (normally a VM address). Callbacks fire as the connection progresses. *)
val connect :
  t ->
  dst:Sw_net.Address.t ->
  ?on_connected:(unit -> unit) ->
  on_msg:(payload:Sw_net.Msg.t -> bytes:int -> unit) ->
  unit ->
  conn

val send : conn -> payload:Sw_net.Msg.t -> bytes:int -> unit
val close : conn -> unit
