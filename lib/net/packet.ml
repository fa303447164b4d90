type t = {
  src : Address.t;
  dst : Address.t;
  size : int;
  seq : int;
  payload : payload;
}

and payload =
  | Empty
  | Guest_bound of { vm : int; ingress_seq : int; inner : t }
  | Proposal of { vm : int; ingress_seq : int; proposer : int; virt : Sw_sim.Time.t }
  | Egress_tunnel of { vm : int; replica : int; inner : t }
  | Epoch_report of { vm : int; replica : int; epoch : int; d : Sw_sim.Time.t; r : Sw_sim.Time.t }
  | Background of int
  | Mcast_data of { group : int; mseq : int; inner : payload }
  | Mcast_nak of { group : int; origin : Address.t; from_mseq : int; to_mseq : int }
  | Mcast_heartbeat of { group : int; last_mseq : int }
  | Vmm_alive of { vm : int; replica : int }
  | Tcp of Msg.seg
  | App of Msg.t

let make ~src ~dst ~size ~seq payload =
  if size <= 0 then invalid_arg "Packet.make: size must be positive";
  { src; dst; size; seq; payload }
