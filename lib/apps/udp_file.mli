(** UDP file transfer with NAK-based recovery — the paper's alternative
    transport that minimises client-to-server packets and so recovers most of
    StopWatch's file-download cost (Fig. 5's "UDP" curves).

    The client sends one request; the server reads the file and streams
    datagrams; the client NAKs only on detected gaps (go-back-N resend). *)

(** [server ?chunk_bytes ?inter_send_branches ()] builds the server guest
    application. [inter_send_branches] models the per-datagram send-loop CPU
    cost (default 2000). *)
val server : ?chunk_bytes:int -> ?inter_send_branches:int -> unit -> Sw_vm.App.factory

(** [fetch host ~dst ~file ~size ~on_done ()] requests the file and calls
    [on_done ~elapsed_ms ~naks] when all bytes have arrived. Gaps are NAKed
    after [nak_delay] (default 20 ms). *)
val fetch :
  Stopwatch.Host.t ->
  dst:Sw_net.Address.t ->
  file:int ->
  size:int ->
  ?nak_delay:Sw_sim.Time.t ->
  on_done:(elapsed_ms:float -> naks:int -> unit) ->
  unit ->
  unit
