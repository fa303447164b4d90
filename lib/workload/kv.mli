(** The front service guest application: a KV/content server behind the
    tiered {!Cache}, spoken over {!Sw_apps.Tcp_guest} keep-alive
    connections.

    One request class is a [(cls, cached, resp_bytes)] triple chosen by the
    client; the request names a key (Zipf-drawn client-side). A cached
    class consults the {!Cache}: a hit answers after the tier's hit cost, a
    miss pays the origin round-trip and then a disk read of the response
    body — so hit/miss asymmetry flows through the disk model and the
    StopWatch Δd offsets exactly like any other guest I/O. Uncached
    classes (large file fetches) go straight to disk.

    Deterministic by construction: state depends only on the delivered
    event stream, so all replicas of the service stay in lockstep. *)

type config = {
  cache : Cache.config;
  compute_branches : int;  (** Per-request CPU cost (request parsing). *)
  header_bytes : int;  (** Response header overhead on the wire. *)
  tcp : Sw_apps.Tcp.config option;  (** [None] = {!Sw_apps.Tcp.default_config}. *)
}

val default_config : config

(** [server config] builds the guest application factory. *)
val server : config -> Sw_vm.App.factory
