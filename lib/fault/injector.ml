module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Event = Sw_obs.Event
module Network = Sw_net.Network
module Registry = Sw_obs.Registry

type env = {
  engine : Engine.t;
  network : Network.t;
  machine_of : int -> Sw_vmm.Machine.t option;
  instance_of : vm:int -> replica:int -> Sw_vmm.Vmm.instance option;
  restart : vm:int -> replica:int -> unit;
}

(* Overlap-safe composition state. Each open window contributes one element;
   closing removes that exact element (physical equality) and reapplies the
   combination of whatever is still active, so windows nest and interleave
   freely. *)
type t = {
  env : env;
  mutable trace : Sw_obs.Trace.t option;
  link_faults : (Sw_net.Address.t option, Network.disturbance list ref) Hashtbl.t;
  slowdowns : (int, float list ref) Hashtbl.t;
  partitions : (int * int, int ref) Hashtbl.t;
  m_injected : Registry.Counter.t;
  m_skipped : Registry.Counter.t;
  k_close : Engine.kind;
  k_restart : Engine.kind;
}

let trace_on t = Sw_obs.Trace.active t.trace

let emit t event =
  match t.trace with
  | None -> ()
  | Some tr -> Sw_obs.Trace.emit tr ~at_ns:(Engine.now t.env.engine) event

let emit_injected t fault ~span =
  Registry.Counter.incr t.m_injected;
  if trace_on t then
    emit t
      (Event.Fault_injected
         {
           fault = Fault.label fault;
           target = Fault.target_string fault;
           span_ns = span;
         })

let emit_cleared t fault =
  if trace_on t then
    emit t
      (Event.Fault_cleared
         { fault = Fault.label fault; target = Fault.target_string fault })

let skip t = Registry.Counter.incr t.m_skipped

(* --- Link disturbances ------------------------------------------------- *)

let active_list tbl key =
  match Hashtbl.find_opt tbl key with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.add tbl key l;
      l

let apply_link t key =
  let combined =
    match !(active_list t.link_faults key) with
    | [] -> None
    | d :: rest -> Some (List.fold_left Network.combine_disturbance d rest)
  in
  match key with
  | None -> Network.set_fault_all t.env.network combined
  | Some addr -> Network.set_fault_to t.env.network addr combined

let open_link t key dist ~span fault =
  let l = active_list t.link_faults key in
  l := dist :: !l;
  apply_link t key;
  emit_injected t fault ~span;
  ignore
    (Engine.schedule_after ~kind:t.k_close t.env.engine span (fun () ->
         l := List.filter (fun d -> d != dist) !l;
         apply_link t key;
         emit_cleared t fault))

(* --- Machine disturbances ---------------------------------------------- *)

let apply_slowdown t mach machine_id =
  let factors = !(active_list t.slowdowns machine_id) in
  Sw_vmm.Machine.set_slowdown mach (List.fold_left ( *. ) 1.0 factors)

(* --- Window dispatch --------------------------------------------------- *)

let address = function
  | Fault.Ingress -> Sw_net.Address.Ingress
  | Fault.Egress -> Sw_net.Address.Egress

let open_window t (spec : Schedule.spec) =
  let span = spec.Schedule.span in
  match spec.Schedule.fault with
  | Fault.Link_loss { target; p } ->
      open_link t (Option.map address target)
        { Network.extra_loss = p; extra_latency = Time.zero }
        ~span spec.Schedule.fault
  | Fault.Link_latency { target; extra } ->
      open_link t (Option.map address target)
        { Network.extra_loss = 0.; extra_latency = extra }
        ~span spec.Schedule.fault
  | Fault.Mcast_partition { vm; replica } -> (
      match t.env.instance_of ~vm ~replica with
      | Some i -> (
          match Sw_vmm.Vmm.channel_endpoint i with
          | Some ep ->
              let count =
                match Hashtbl.find_opt t.partitions (vm, replica) with
                | Some c -> c
                | None ->
                    let c = ref 0 in
                    Hashtbl.add t.partitions (vm, replica) c;
                    c
              in
              incr count;
              Sw_net.Multicast.set_partitioned ep true;
              emit_injected t spec.Schedule.fault ~span;
              ignore
                (Engine.schedule_after ~kind:t.k_close t.env.engine span
                   (fun () ->
                     decr count;
                     if !count = 0 then Sw_net.Multicast.set_partitioned ep false;
                     emit_cleared t spec.Schedule.fault))
          | None -> skip t)
      | None -> skip t)
  | Fault.Machine_stall { machine } -> (
      match t.env.machine_of machine with
      | Some mach ->
          let until = Time.add (Engine.now t.env.engine) span in
          Sw_vmm.Machine.stall mach ~until;
          emit_injected t spec.Schedule.fault ~span;
          ignore
            (Engine.schedule_after ~kind:t.k_close t.env.engine span
               (fun () -> emit_cleared t spec.Schedule.fault))
      | None -> skip t)
  | Fault.Machine_slowdown { machine; factor } -> (
      match t.env.machine_of machine with
      | Some mach ->
          let l = active_list t.slowdowns machine in
          l := factor :: !l;
          apply_slowdown t mach machine;
          emit_injected t spec.Schedule.fault ~span;
          ignore
            (Engine.schedule_after ~kind:t.k_close t.env.engine span
               (fun () ->
                 (l :=
                    match !l with
                    | [] -> []
                    | _ :: _ as fs ->
                        (* Remove one occurrence of this window's factor. *)
                        let removed = ref false in
                        List.filter
                          (fun f ->
                            if (not !removed) && f = factor then begin
                              removed := true;
                              false
                            end
                            else true)
                          fs);
                 apply_slowdown t mach machine;
                 emit_cleared t spec.Schedule.fault))
      | None -> skip t)
  | Fault.Dom0_pause { machine } -> (
      match t.env.machine_of machine with
      | Some mach ->
          let until = Time.add (Engine.now t.env.engine) span in
          Sw_vmm.Machine.pause_dom0 mach ~until;
          emit_injected t spec.Schedule.fault ~span;
          ignore
            (Engine.schedule_after ~kind:t.k_close t.env.engine span
               (fun () -> emit_cleared t spec.Schedule.fault))
      | None -> skip t)
  | Fault.Replica_crash { vm; replica; restart_after } -> (
      match t.env.instance_of ~vm ~replica with
      | Some i ->
          Sw_vmm.Vmm.crash i;
          emit_injected t spec.Schedule.fault ~span:Time.zero;
          Option.iter
            (fun delay ->
              ignore
                (Engine.schedule_after ~kind:t.k_restart t.env.engine delay
                   (fun () -> t.env.restart ~vm ~replica)))
            restart_after
      | None -> skip t)

let install ?trace env schedule =
  Schedule.validate schedule;
  let metrics = Engine.metrics env.engine in
  let t =
    {
      env;
      trace;
      link_faults = Hashtbl.create 8;
      slowdowns = Hashtbl.create 4;
      partitions = Hashtbl.create 4;
      m_injected = Registry.counter metrics "fault.injected";
      m_skipped = Registry.counter metrics "fault.skipped";
      k_close = Engine.kind env.engine "fault.close";
      k_restart = Engine.kind env.engine "fault.restart";
    }
  in
  let kind = Engine.kind env.engine "fault.open" in
  List.iter
    (fun (spec : Schedule.spec) ->
      ignore
        (Engine.schedule_at ~kind env.engine spec.Schedule.at
           (fun () -> open_window t spec)))
    (Schedule.sorted schedule);
  t

let set_trace t tr = t.trace <- Some tr
let injected t = Registry.Counter.value t.m_injected
let skipped t = Registry.Counter.value t.m_skipped
