(** NFS-like RPC service over {!Tcp} and an nhfsstone-style load generator
    (paper Fig. 6).

    The client side runs [procs] processes, each with its own connection,
    issuing operations at a constant aggregate rate with the paper's measured
    operation mix; it records per-operation latency. Packets per operation
    come from the network's per-pair counters. *)

type op = Sw_net.Msg.nfs_op = Setattr | Lookup | Write | Getattr | Read | Create

(** Server guest application. Reads fetch 8 KiB from disk on a buffer-cache
    miss (70% hit rate, deterministic per xid); writes/creates/setattrs
    journal their payload sequentially and reply write-behind;
    lookups/getattrs are compute-only. *)
val server : Sw_vm.App.factory

(** Recommended client TCP configuration: Nagle enabled, so small RPC calls
    coalesce under load — the mechanism behind Fig. 6(b)'s falling
    client-to-server packet count. *)
val client_tcp_config : Tcp.config

type client_stats = {
  issued : int;
  completed : int;
  latencies_ms : float array;  (** Per completed op. *)
}

(** [run_client t ~dst ~rate_per_s ~procs ~ops ~seed] starts the
    load: [ops] operations spread over [procs] connections at aggregate
    [rate_per_s], ops drawn from the paper's extracted mix (11.37% setattr,
    24.07% lookup, 11.92% write, 7.93% getattr, 32.34% read, 12.37% create)
    with a deterministic PRNG seeded by [seed]. Returns a handle to poll
    after the simulation has run. *)
val run_client :
  Tcp_host.t ->
  dst:Sw_net.Address.t ->
  rate_per_s:float ->
  procs:int ->
  ops:int ->
  seed:int64 ->
  (unit -> client_stats)
