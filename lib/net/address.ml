type t =
  | Vm of int
  | Vmm of int
  | Host of int
  | Ingress
  | Egress
  | Broadcast_addr

let index = function
  | Vm i -> (i lsl 3) lor 1
  | Vmm i -> (i lsl 3) lor 2
  | Host i -> (i lsl 3) lor 3
  | Ingress -> 4
  | Egress -> 5
  | Broadcast_addr -> 6

let equal a b =
  match (a, b) with
  | Vm i, Vm j | Vmm i, Vmm j | Host i, Host j -> Int.equal i j
  | Ingress, Ingress | Egress, Egress | Broadcast_addr, Broadcast_addr -> true
  | (Vm _ | Vmm _ | Host _ | Ingress | Egress | Broadcast_addr), _ -> false

(* [Stdlib.compare]'s order: constant constructors first, in declaration
   order, then the others by constructor and id. *)
let rank = function
  | Ingress -> 0
  | Egress -> 1
  | Broadcast_addr -> 2
  | Vm _ -> 3
  | Vmm _ -> 4
  | Host _ -> 5

let compare a b =
  match (a, b) with
  | Vm i, Vm j | Vmm i, Vmm j | Host i, Host j -> Int.compare i j
  | _ -> Int.compare (rank a) (rank b)

let pp fmt = function
  | Vm i -> Format.fprintf fmt "vm%d" i
  | Vmm i -> Format.fprintf fmt "vmm%d" i
  | Host i -> Format.fprintf fmt "host%d" i
  | Ingress -> Format.pp_print_string fmt "ingress"
  | Egress -> Format.pp_print_string fmt "egress"
  | Broadcast_addr -> Format.pp_print_string fmt "broadcast"

let to_string t = Format.asprintf "%a" pp t
