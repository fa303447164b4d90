type divergence_kind = Late_median | Delta_d_violation

type t =
  | Packet_proposed of {
      vm : int;
      observer : int;
      proposer : int;
      ingress_seq : int;
      virt_ns : int;
    }
  | Median_adopted of {
      vm : int;
      replica : int;
      ingress_seq : int;
      virt_ns : int;
      proposals : (int * int) list;
    }
  | Packet_delivered of { vm : int; replica : int; seq : int; virt_ns : int }
  | Ingress_replicated of { vm : int; ingress_seq : int; copies : int; size : int }
  | Egress_released of { vm : int; seq : int; rank : int; copies : int }
  | Divergence of { vm : int; replica : int; kind : divergence_kind }
  | Vm_exit of {
      vm : int;
      replica : int;
      machine : int;
      virt_ns : int;
      instr : int;
    }
  | Disk_irq of { vm : int; replica : int; tag : int; virt_ns : int }
  | Dma_irq of { vm : int; replica : int; tag : int; virt_ns : int }
  | Fault_injected of { fault : string; target : string; span_ns : int }
  | Fault_cleared of { fault : string; target : string }
  | Fault_replica_crash of { vm : int; replica : int }
  | Fault_replica_restart of { vm : int; replica : int }
  | Degrade_suspected of { vm : int; replica : int; attempt : int }
  | Degrade_ejected of { vm : int; replica : int; quorum : int }
  | Degrade_reintegrated of { vm : int; replica : int; quorum : int }
  | Span_begin of { name : string }
  | Span_end of { name : string; elapsed_ns : int }

let label = function
  | Packet_proposed _ -> "proposal"
  | Median_adopted _ -> "median"
  | Packet_delivered _ -> "deliver"
  | Ingress_replicated _ -> "ingress-rep"
  | Egress_released _ -> "egress-release"
  | Divergence _ -> "divergence"
  | Vm_exit _ -> "vm-exit"
  | Disk_irq _ -> "disk-irq"
  | Dma_irq _ -> "dma-irq"
  | Fault_injected _ -> "fault-inject"
  | Fault_cleared _ -> "fault-clear"
  | Fault_replica_crash _ -> "fault-crash"
  | Fault_replica_restart _ -> "fault-restart"
  | Degrade_suspected _ -> "degrade-suspect"
  | Degrade_ejected _ -> "degrade-eject"
  | Degrade_reintegrated _ -> "degrade-reintegrate"
  | Span_begin _ -> "span-begin"
  | Span_end _ -> "span-end"

let vm_of = function
  | Packet_proposed { vm; _ }
  | Median_adopted { vm; _ }
  | Packet_delivered { vm; _ }
  | Ingress_replicated { vm; _ }
  | Egress_released { vm; _ }
  | Divergence { vm; _ }
  | Vm_exit { vm; _ }
  | Disk_irq { vm; _ }
  | Dma_irq { vm; _ }
  | Fault_replica_crash { vm; _ }
  | Fault_replica_restart { vm; _ }
  | Degrade_suspected { vm; _ }
  | Degrade_ejected { vm; _ }
  | Degrade_reintegrated { vm; _ } ->
      Some vm
  | Fault_injected _ | Fault_cleared _ | Span_begin _ | Span_end _ -> None

let replica_of = function
  | Packet_proposed { observer; _ } -> Some observer
  | Median_adopted { replica; _ }
  | Packet_delivered { replica; _ }
  | Divergence { replica; _ }
  | Vm_exit { replica; _ }
  | Disk_irq { replica; _ }
  | Dma_irq { replica; _ }
  | Fault_replica_crash { replica; _ }
  | Fault_replica_restart { replica; _ }
  | Degrade_suspected { replica; _ }
  | Degrade_ejected { replica; _ }
  | Degrade_reintegrated { replica; _ } ->
      Some replica
  | Ingress_replicated _ | Egress_released _ | Fault_injected _
  | Fault_cleared _ | Span_begin _ | Span_end _ ->
      None

let pp_ns fmt t =
  let f = float_of_int t in
  let af = Float.abs f in
  if af < 1e3 then Format.fprintf fmt "%dns" t
  else if af < 1e6 then Format.fprintf fmt "%.3fus" (f /. 1e3)
  else if af < 1e9 then Format.fprintf fmt "%.3fms" (f /. 1e6)
  else Format.fprintf fmt "%.3fs" (f /. 1e9)

let pp fmt = function
  | Packet_proposed { vm; observer; proposer; ingress_seq; virt_ns } ->
      if observer = proposer then
        Format.fprintf fmt "vm%d/r%d proposes virt=%a for pkt #%d" vm proposer
          pp_ns virt_ns ingress_seq
      else
        Format.fprintf fmt "vm%d/r%d records r%d's proposal virt=%a for pkt #%d"
          vm observer proposer pp_ns virt_ns ingress_seq
  | Median_adopted { vm; replica; ingress_seq; virt_ns; proposals } ->
      Format.fprintf fmt "vm%d/r%d adopts median virt=%a for pkt #%d (%s)" vm
        replica pp_ns virt_ns ingress_seq
        (String.concat ", "
           (List.map
              (fun (r, v) -> Format.asprintf "r%d:%a" r pp_ns v)
              (List.sort Stdlib.compare proposals)))
  | Packet_delivered { vm; replica; seq; virt_ns } ->
      Format.fprintf fmt "vm%d/r%d delivers pkt #%d to guest at virt=%a" vm
        replica seq pp_ns virt_ns
  | Ingress_replicated { vm; ingress_seq; copies; size } ->
      Format.fprintf fmt "ingress replicates pkt #%d (%d B) for vm%d to %d VMMs"
        ingress_seq size vm copies
  | Egress_released { vm; seq; rank; copies } ->
      Format.fprintf fmt
        "egress releases vm%d pkt #%d on copy %d of %d (median output timing)"
        vm seq rank copies
  | Divergence { vm; replica; kind } ->
      Format.fprintf fmt "vm%d/r%d diverged (%s)" vm replica
        (match kind with
        | Late_median -> "median in the past"
        | Delta_d_violation -> "delta_d violation")
  | Vm_exit { vm; replica; machine; virt_ns; instr } ->
      Format.fprintf fmt "vm%d/r%d@m%d exit at virt=%a instr=%d" vm replica
        machine pp_ns virt_ns instr
  | Disk_irq { vm; replica; tag; virt_ns } ->
      Format.fprintf fmt "vm%d/r%d disk irq tag=%d at virt=%a" vm replica tag
        pp_ns virt_ns
  | Dma_irq { vm; replica; tag; virt_ns } ->
      Format.fprintf fmt "vm%d/r%d dma irq tag=%d at virt=%a" vm replica tag
        pp_ns virt_ns
  | Fault_injected { fault; target; span_ns } ->
      Format.fprintf fmt "fault %s injected at %s for %a" fault target pp_ns
        span_ns
  | Fault_cleared { fault; target } ->
      Format.fprintf fmt "fault %s cleared at %s" fault target
  | Fault_replica_crash { vm; replica } ->
      Format.fprintf fmt "vm%d/r%d crashed" vm replica
  | Fault_replica_restart { vm; replica } ->
      Format.fprintf fmt "vm%d/r%d restarted" vm replica
  | Degrade_suspected { vm; replica; attempt } ->
      Format.fprintf fmt "vm%d/r%d suspected dead (attempt %d)" vm replica
        attempt
  | Degrade_ejected { vm; replica; quorum } ->
      Format.fprintf fmt "vm%d/r%d ejected; group degrades to quorum %d" vm
        replica quorum
  | Degrade_reintegrated { vm; replica; quorum } ->
      Format.fprintf fmt "vm%d/r%d reintegrated; group back to quorum %d" vm
        replica quorum
  | Span_begin { name } -> Format.fprintf fmt "span %s begins" name
  | Span_end { name; elapsed_ns } ->
      Format.fprintf fmt "span %s ends after %a" name pp_ns elapsed_ns
