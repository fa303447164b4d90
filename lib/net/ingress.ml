module Int_tbl = Sw_obs.Int_tbl

type vm_entry = {
  channel : Multicast.endpoint;
  mutable next_ingress_seq : int;
  mutable replicas : int;  (** Active replicas: the trace's [copies]. *)
}

type t = {
  network : Network.t;
  vms : vm_entry Int_tbl.t;
  mcast_routes : Multicast.endpoint Int_tbl.t;  (** By group id. *)
  m_dropped : Sw_obs.Registry.Counter.t;
  m_replicated : Sw_obs.Registry.Counter.t;
}

let handle t (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Packet.Mcast_data { group; _ }
  | Packet.Mcast_nak { group; _ }
  | Packet.Mcast_heartbeat { group; _ } -> (
      (* NAKs from the replica VMMs (and their group traffic, which the
         ingress ignores at delivery) route to the per-VM endpoint. *)
      match Int_tbl.find t.mcast_routes group with
      | ep -> Multicast.handle ep pkt
      | exception Not_found -> Sw_obs.Registry.Counter.incr t.m_dropped)
  | Packet.Empty | Packet.Guest_bound _ | Packet.Proposal _
  | Packet.Egress_tunnel _ | Packet.Epoch_report _ | Packet.Background _
  | Packet.Vmm_alive _ | Packet.Tcp _ | Packet.App _ -> (
      match pkt.Packet.dst with
      | Address.Vm vm -> (
          match Int_tbl.find t.vms vm with
          | exception Not_found -> Sw_obs.Registry.Counter.incr t.m_dropped
          | entry ->
              let ingress_seq = entry.next_ingress_seq in
              entry.next_ingress_seq <- ingress_seq + 1;
              Sw_obs.Registry.Counter.incr t.m_replicated;
              let engine = Network.engine t.network in
              if Sw_sim.Engine.tracing engine then
                Sw_sim.Engine.emit engine
                  (Sw_obs.Event.Ingress_replicated
                     {
                       vm;
                       ingress_seq;
                       copies = entry.replicas;
                       size = pkt.Packet.size;
                     });
              Multicast.publish entry.channel ~size:pkt.Packet.size
                (Packet.Guest_bound { vm; ingress_seq; inner = pkt }))
      | _ -> Sw_obs.Registry.Counter.incr t.m_dropped)

let create network =
  let metrics = Sw_sim.Engine.metrics (Network.engine network) in
  let t =
    {
      network;
      vms = Int_tbl.create 16;
      mcast_routes = Int_tbl.create 16;
      m_dropped = Sw_obs.Registry.counter metrics "net.ingress.dropped";
      m_replicated = Sw_obs.Registry.counter metrics "net.ingress.replicated";
    }
  in
  Network.register network Address.Ingress (handle t);
  t

let register_vm t ~vm ~channel ~replicas =
  if replicas < 1 then invalid_arg "Ingress.register_vm: no replicas";
  (* The ingress delivers nothing itself: VMM coordination traffic on the
     shared group is irrelevant to it. *)
  let ep =
    Multicast.endpoint channel ~self:Address.Ingress ~deliver:(fun _ -> ()) ()
  in
  Int_tbl.replace t.mcast_routes (Multicast.group_id channel) ep;
  Int_tbl.replace t.vms vm { channel = ep; next_ingress_seq = 0; replicas };
  Network.set_route t.network ~dst:(Address.Vm vm) ~via:Address.Ingress

(* Copies flow group-wide whatever the membership (dead members just never
   read them); only the traced copy count follows it. *)
let set_replicas t ~vm ~replicas =
  if replicas < 1 then invalid_arg "Ingress.set_replicas: no replicas";
  match Int_tbl.find_opt t.vms vm with
  | None -> invalid_arg "Ingress.set_replicas: unknown vm"
  | Some entry -> entry.replicas <- replicas

let dropped t = Sw_obs.Registry.Counter.value t.m_dropped
let replicated t = Sw_obs.Registry.Counter.value t.m_replicated
