(** HTTP-like file service over {!Tcp} — the paper's Apache file-download
    workload (Fig. 5).

    The server reads the requested file from disk in chunks (cold cache, as
    in the paper) and streams the response over the connection. The client
    measures wall-clock retrieval time at an external host. *)

(** The server guest application. It reads files from disk in 256 KiB
    chunks. *)
val server : Sw_vm.App.factory

(** [download t ~dst ~file ~size ~on_done ()] opens a connection, requests
    the file, and calls [on_done ~elapsed_ms] when the full response has
    arrived. *)
val download :
  Tcp_host.t ->
  dst:Sw_net.Address.t ->
  file:int ->
  size:int ->
  on_done:(elapsed_ms:float -> unit) ->
  unit ->
  unit
