(** UDP file transfer with NAK-based recovery — the paper's alternative
    transport that minimises client-to-server packets and so recovers most of
    StopWatch's file-download cost (Fig. 5's "UDP" curves).

    The client sends one request; the server reads the file and streams
    datagrams; the client NAKs only on detected gaps (go-back-N resend). *)

(** The server guest application. It reads files from disk in 256 KiB
    chunks and spends 2000 branches of send-loop CPU per datagram. *)
val server : Sw_vm.App.factory

(** [fetch host ~dst ~file ~size ~on_done] requests the file and calls
    [on_done ~elapsed_ms ~naks] when all bytes have arrived. A gap still
    open after 20 ms is NAKed. *)
val fetch :
  Stopwatch.Host.t ->
  dst:Sw_net.Address.t ->
  file:int ->
  size:int ->
  on_done:(elapsed_ms:float -> naks:int -> unit) ->
  unit
