module Time = Sw_sim.Time
module Engine = Sw_sim.Engine

type t = {
  network : Sw_net.Network.t;
  address : Sw_net.Address.t;
  mutable handler : Sw_net.Packet.t -> unit;
  m_received : Sw_obs.Registry.Counter.t;
  mutable last_arrival : Time.t option;
  mutable inter_arrival : Sw_sim.Samples.t option;
      (** Raw samples (not a metric): the attack distinguishers need the
          full empirical distribution, not bucketised counts. Kept only
          once {!record_inter_arrival} asks. *)
}

let create network ~id ~link =
  let address = Sw_net.Address.Host id in
  let metrics = Engine.metrics (Sw_net.Network.engine network) in
  let t =
    {
      network;
      address;
      handler = (fun _ -> ());
      m_received =
        Sw_obs.Registry.counter metrics
          (Printf.sprintf "host.%s.received" (Sw_net.Address.to_string address));
      last_arrival = None;
      inter_arrival = None;
    }
  in
  Sw_net.Network.set_node_link network address link;
  Sw_net.Network.register network address (fun pkt ->
      let now = Engine.now (Sw_net.Network.engine network) in
      Sw_obs.Registry.Counter.incr t.m_received;
      (match t.inter_arrival with
      | Some series ->
          (match t.last_arrival with
          | Some prev -> Sw_sim.Samples.add series (Time.to_float_ms (Time.sub now prev))
          | None -> ());
          t.last_arrival <- Some now
      | None -> ());
      t.handler pkt);
  t

let address t = t.address
let engine t = Sw_net.Network.engine t.network
let now t = Engine.now (engine t)
let set_handler t h = t.handler <- h

let send t ~dst ~size payload =
  let pkt =
    Sw_net.Packet.make ~src:t.address ~dst ~size
      ~seq:(Sw_net.Network.fresh_seq t.network)
      payload
  in
  Sw_net.Network.send t.network pkt

let after t span f = Engine.schedule_after (engine t) span f
let record_inter_arrival t =
  if Option.is_none t.inter_arrival then
    t.inter_arrival <- Some (Sw_sim.Samples.create ())

let inter_arrival_ms t =
  match t.inter_arrival with
  | Some s -> Sw_sim.Samples.to_array s
  | None -> invalid_arg "Host.inter_arrival_ms: record_inter_arrival was not called"
