module Time = Sw_sim.Time

type target = Ingress | Egress

type t =
  | Link_loss of { target : target option; p : float }
  | Link_latency of { target : target option; extra : Time.t }
  | Mcast_partition of { vm : int; replica : int }
  | Machine_stall of { machine : int }
  | Machine_slowdown of { machine : int; factor : float }
  | Dom0_pause of { machine : int }
  | Replica_crash of { vm : int; replica : int; restart_after : Time.t option }

let ingress_drop ~p = Link_loss { target = Some Ingress; p }
let egress_drop ~p = Link_loss { target = Some Egress; p }

let label = function
  | Link_loss _ -> "link-loss"
  | Link_latency _ -> "link-latency"
  | Mcast_partition _ -> "mcast-partition"
  | Machine_stall _ -> "machine-stall"
  | Machine_slowdown _ -> "machine-slowdown"
  | Dom0_pause _ -> "dom0-pause"
  | Replica_crash _ -> "replica-crash"

let target_string = function
  | Link_loss { target; _ } | Link_latency { target; _ } -> (
      match target with
      | None -> "net"
      | Some Ingress -> "net:ingress"
      | Some Egress -> "net:egress")
  | Mcast_partition { vm; replica } | Replica_crash { vm; replica; _ } ->
      Printf.sprintf "vm%d/r%d" vm replica
  | Machine_stall { machine }
  | Machine_slowdown { machine; _ }
  | Dom0_pause { machine } ->
      Printf.sprintf "machine:%d" machine

let validate = function
  | Link_loss { p; _ } ->
      if p < 0. || p > 1. then invalid_arg "Fault: loss probability not in [0, 1]"
  | Link_latency { extra; _ } ->
      if Time.(extra < Time.zero) then invalid_arg "Fault: negative extra latency"
  | Machine_slowdown { factor; _ } ->
      if factor < 1. then invalid_arg "Fault: slowdown factor must be >= 1"
  | Replica_crash { restart_after = Some d; _ } ->
      if Time.(d <= Time.zero) then
        invalid_arg "Fault: restart_after must be positive"
  | Mcast_partition _ | Machine_stall _ | Dom0_pause _
  | Replica_crash { restart_after = None; _ } ->
      ()
