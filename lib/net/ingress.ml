module Int_tbl = Sw_sim.Int_tbl

type vm_entry = {
  mutable replica_vmms : Address.t list;
  mutable next_ingress_seq : int;
  channel : Multicast.endpoint option;
}

type t = {
  network : Network.t;
  vms : vm_entry Int_tbl.t;
  mcast_routes : Multicast.endpoint Int_tbl.t;  (** By group id. *)
  m_dropped : Sw_obs.Registry.Counter.t;
  m_replicated : Sw_obs.Registry.Counter.t;
  mutable trace : Sw_obs.Trace.t option;
}

let handle t (pkt : Packet.t) =
  if Multicast.is_mcast pkt then begin
    (* NAKs from the replica VMMs (and their group traffic, which the
       ingress ignores at delivery) route to the per-VM endpoint. *)
    match Multicast.group_of_packet pkt with
    | Some gid -> (
        match Int_tbl.find t.mcast_routes gid with
        | ep -> Multicast.handle ep pkt
        | exception Not_found -> Sw_obs.Registry.Counter.incr t.m_dropped)
    | None -> Sw_obs.Registry.Counter.incr t.m_dropped
  end
  else
    match pkt.Packet.dst with
    | Address.Vm vm -> (
        match Int_tbl.find t.vms vm with
        | exception Not_found -> Sw_obs.Registry.Counter.incr t.m_dropped
        | entry -> (
            let ingress_seq = entry.next_ingress_seq in
            entry.next_ingress_seq <- ingress_seq + 1;
            Sw_obs.Registry.Counter.incr t.m_replicated;
            if Sw_obs.Trace.active t.trace then
              Sw_obs.Trace.emit (Option.get t.trace)
                ~at_ns:(Sw_sim.Engine.now (Network.engine t.network))
                (Sw_obs.Event.Ingress_replicated
                   {
                     vm;
                     ingress_seq;
                     copies = List.length entry.replica_vmms;
                     size = pkt.Packet.size;
                   });
            let payload = Packet.Guest_bound { vm; ingress_seq; inner = pkt } in
            match entry.channel with
            | Some ep -> Multicast.publish ep ~size:pkt.Packet.size payload
            | None ->
                List.iter
                  (fun vmm ->
                    let copy =
                      Packet.make ~src:Address.Ingress ~dst:vmm
                        ~size:pkt.Packet.size
                        ~seq:(Network.fresh_seq t.network)
                        payload
                    in
                    Network.send t.network copy)
                  entry.replica_vmms))
    | _ -> Sw_obs.Registry.Counter.incr t.m_dropped

let create network =
  let metrics = Sw_sim.Engine.metrics (Network.engine network) in
  let t =
    {
      network;
      vms = Int_tbl.create 16;
      mcast_routes = Int_tbl.create 16;
      m_dropped = Sw_obs.Registry.counter metrics "net.ingress.dropped";
      m_replicated = Sw_obs.Registry.counter metrics "net.ingress.replicated";
      trace = None;
    }
  in
  Network.register network Address.Ingress (handle t);
  t

let set_trace t tr = t.trace <- Some tr

let register_vm ?channel t ~vm ~replica_vmms =
  if replica_vmms = [] then invalid_arg "Ingress.register_vm: no replicas";
  let endpoint =
    Option.map
      (fun g ->
        (* The ingress delivers nothing itself: VMM coordination traffic on
           the shared group is irrelevant to it. *)
        let ep = Multicast.endpoint g ~self:Address.Ingress ~deliver:(fun _ -> ()) () in
        Int_tbl.replace t.mcast_routes (Multicast.group_id g) ep;
        ep)
      channel
  in
  Int_tbl.replace t.vms vm
    { replica_vmms; next_ingress_seq = 0; channel = endpoint };
  Network.set_route t.network ~dst:(Address.Vm vm) ~via:Address.Ingress

(* Degradation support for unicast mode: stop copying to ejected VMMs (on a
   multicast channel copies keep flowing group-wide; dead members just never
   read them). *)
let set_replica_vmms t ~vm ~replica_vmms =
  if replica_vmms = [] then invalid_arg "Ingress.set_replica_vmms: no replicas";
  match Int_tbl.find_opt t.vms vm with
  | None -> invalid_arg "Ingress.set_replica_vmms: unknown vm"
  | Some entry -> entry.replica_vmms <- replica_vmms

let unregister_vm t ~vm =
  Int_tbl.remove t.vms vm;
  Network.clear_route t.network ~dst:(Address.Vm vm)

let dropped t = Sw_obs.Registry.Counter.value t.m_dropped
let replicated t = Sw_obs.Registry.Counter.value t.m_replicated

let max_mcast_group t =
  Int_tbl.fold (fun gid _ acc -> Int.max gid acc) t.mcast_routes 0
