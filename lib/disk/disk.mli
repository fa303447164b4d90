(** Rotating-disk model with a FIFO request queue.

    Service time per request is [seek + rotation + size/transfer_rate], with
    seek and rotational delay drawn uniformly up to their configured maxima;
    sequential requests scale both down by [sequential_seek_fraction]
    (continuing on-track costs almost no positioning). One request is in service at a
    time, so coresident VMs' requests queue behind each other — a timing-
    channel source the StopWatch disk offset Δd must cover. *)

type params = {
  max_seek : Sw_sim.Time.t;  (** Full-stroke seek (default 3 ms). *)
  max_rotation : Sw_sim.Time.t;  (** Full revolution (default 4 ms, 15k rpm). *)
  transfer_bps : int;  (** Media transfer rate (default 100 MB/s). *)
  sequential_seek_fraction : float;
      (** Seek scale when a request continues the previous one (default 0.05). *)
}

val default_params : params

type t

(** [create engine ~params ~path] models one disk. [path] prefixes the
    disk's metrics in the engine's registry:
    [<path>.completed], [<path>.vm<v>.completed], [<path>.busy_ns] and the
    [<path>.service_ns] histogram. *)
val create : Sw_sim.Engine.t -> params:params -> path:string -> t

type kind = Read | Write

(** [submit t ~vm ~kind ~bytes ~sequential k] enqueues a request and calls
    [k] at its completion time. [vm] tags the requester for accounting. *)
val submit :
  t -> vm:int -> kind:kind -> bytes:int -> sequential:bool -> (unit -> unit) -> unit
