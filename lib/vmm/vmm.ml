module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Int_tbl = Sw_sim.Int_tbl
module Registry = Sw_obs.Registry
module Event = Sw_obs.Event
module Packet = Sw_net.Packet
module Address = Sw_net.Address

(* Testbed constants: the guest PIT at 250 Hz, the wire size of a proposal
   or epoch report, and unmodified Xen's emulation latency for interrupt
   delivery. *)
let pit_period = Time.ms 4
let proposal_size = 80
let baseline_inject_delay = Time.us 150

(* Interrupt classes give a fixed injection order among interrupts that
   become deliverable at the same exit (net before disk, then key order);
   any fixed rule works, it only has to be identical across replicas. *)
type pending = {
  delivery : Time.t;
  cls : int;
  key : int;
  event : Sw_vm.App.event;
}

type inbound_entry = {
  mutable packet : Packet.t option;
  mutable proposals : (int * Time.t) list;  (** (replica_id, proposed virt) *)
}

type disk_entry = {
  tag : int;
  delivery_virt : Time.t;
  mutable ready : bool;
}

(* Execution history for deterministic replay: exactly the operations the
   VMM performed on the guest, in order. *)
type log_entry =
  | L_slice
  | L_inject of Sw_vm.App.event
  | L_timers
  | L_slope of int * float

type instance = {
  vm_id : int;
  group : Replica_group.t;
  member : Replica_group.member;
  mutable guest : Sw_vm.Guest.t;
  mutable vt : Sw_vm.Virtual_time.t;
  mutable crashed : bool;
      (** A crashed replica stops slicing, heartbeating, and reacting to
          packets; its VMM and machine keep running (process death, not
          machine death). *)
  app_factory : Sw_vm.App.factory;
  sinks : Sw_vm.Guest.sinks;
  vt_start : Time.t;
  mutable log_rev : log_entry list;
  peers : Address.t list;
  mutable channel : Sw_net.Multicast.endpoint option;
      (** PGM endpoint shared with the peer VMMs and the ingress. *)
  mach : Machine.t;
  config : Config.t;
  inbound : inbound_entry Int_tbl.t;  (** By ingress sequence number. *)
  mutable pending : pending list;  (** Sorted by (delivery, cls, key). *)
  mutable disk_waiting : disk_entry list;
  m_net : Registry.Counter.t;
  m_disk_irq : Registry.Counter.t;
  m_dma_irq : Registry.Counter.t;
  m_delta_d : Registry.Counter.t;
  mutable last_net_virt : Time.t option;
  inter_delivery : Sw_sim.Samples.t;
  h_inter : Registry.Histogram.t;
  mutable trace : Sw_obs.Trace.t option;
  m_median_sources : Registry.Sum.t array;
      (** Per replica id: medians credited to its proposal (ties split). *)
  p_median : Sw_obs.Profile.timer;
}

type t = {
  mach : Machine.t;
  instances : instance Int_tbl.t;  (** By VM id. *)
  mcast_routes : Sw_net.Multicast.endpoint Int_tbl.t;
      (** Multicast group id -> endpoint, for inbound demux. *)
  m_unknown : Registry.Counter.t;
}

let machine t = t.mach
let vm i = i.vm_id
let replica i = Replica_group.replica_id i.member
let member i = i.member
let channel_endpoint i = i.channel
let guest i = i.guest
let metric_prefix (i : instance) =
  Printf.sprintf "vmm.%d.vm%d" (Machine.id i.mach) i.vm_id

let net_deliveries i = Registry.Counter.value i.m_net
let disk_interrupts i = Registry.Counter.value i.m_disk_irq
let dma_interrupts i = Registry.Counter.value i.m_dma_irq
let inter_delivery_virts_ms i = Sw_sim.Samples.to_array i.inter_delivery
let delta_d_violations i = Registry.Counter.value i.m_delta_d
let set_trace i tr = i.trace <- Some tr

let log_op i entry =
  if i.config.Config.replay_log then i.log_rev <- entry :: i.log_rev

(* Guard every emission with [trace_on] so a disabled (or absent) sink costs
   one branch: no event payload is allocated and nothing is formatted. *)
let trace_on i = Sw_obs.Trace.active i.trace

let emit i event =
  match i.trace with
  | None -> ()
  | Some tr ->
      Sw_obs.Trace.emit tr ~at_ns:(Engine.now (Machine.engine i.mach)) event

let precedes a b =
  match Time.compare a.delivery b.delivery with
  | 0 -> if a.cls <> b.cls then a.cls < b.cls else a.key < b.key
  | c -> c < 0

let rec insert_sorted entry = function
  | [] -> [ entry ]
  | hd :: rest ->
      if precedes entry hd then entry :: hd :: rest
      else hd :: insert_sorted entry rest

let insert_pending i entry = i.pending <- insert_sorted entry i.pending

let is_stopwatch i =
  match Replica_group.mode i.group with
  | Replica_group.Stopwatch -> true
  | Replica_group.Baseline -> false

(* --- Network device model ------------------------------------------- *)

(* A delivery time resolves once every current quorum voter has proposed;
   the median is taken over the voters' proposals only. With a full group
   that is all replicas, as in the paper; a degraded group medians over the
   surviving odd quorum, and proposals from ejected (non-voting) members are
   recorded but carry no vote. *)
(* Replica-id lookups, monomorphic and closure-free. *)
let rec mem_id (id : int) = function
  | [] -> false
  | x :: rest -> x = id || mem_id id rest

let rec has_proposal (id : int) = function
  | [] -> false
  | (who, _) :: rest -> who = id || has_proposal id rest

let complete_inbound i ~ingress_seq entry =
  let voters = Replica_group.quorum_ids i.group in
  let votes =
    List.filter (fun (who, _) -> mem_id who voters) entry.proposals
  in
  let quorum = List.length voters in
  match entry.packet with
  | Some inner when quorum > 0 && List.length votes = quorum ->
      Sw_obs.Profile.time
        (Engine.profile (Machine.engine i.mach))
        i.p_median
        (fun () ->
      Int_tbl.remove i.inbound ingress_seq;
      let delivery =
        (* Three voters is the steady state (paper Sec. IV); take its median
           straight off the list through the branch network. Other quorum
           sizes fill one array in a single pass. *)
        match votes with
        | [ (_, a); (_, b); (_, c) ] ->
            Sw_stats.Order_stats.median3_int a b c
        | _ ->
            let arr = Array.make (List.length votes) Time.zero in
            List.iteri (fun k (_, v) -> arr.(k) <- v) votes;
            Replica_group.median_time arr
      in
      (* Credit the proposers whose value the median adopted, splitting ties
         evenly — Sec. IX's marginalisation is visible here: a loaded
         replica's (late, hence larger) proposals stop being adopted. *)
      let winners =
        List.filter (fun (_, v) -> Time.equal v delivery) votes
      in
      let credit = 1. /. float_of_int (List.length winners) in
      List.iter
        (fun (who, _) -> Registry.Sum.add i.m_median_sources.(who) credit)
        winners;
      if trace_on i then
        emit i
          (Event.Median_adopted
             {
               vm = i.vm_id;
               replica = Replica_group.replica_id i.member;
               ingress_seq;
               virt_ns = delivery;
               proposals = entry.proposals;
             });
      if Time.(delivery < Replica_group.member_virt i.member) then begin
        Replica_group.record_divergence i.group;
        if trace_on i then
          emit i
            (Event.Divergence
               {
                 vm = i.vm_id;
                 replica = Replica_group.replica_id i.member;
                 kind = Event.Late_median;
               })
      end;
      insert_pending i
        { delivery; cls = 0; key = ingress_seq; event = Sw_vm.App.Packet_in inner })
  | _ -> ()

let inbound_entry i ingress_seq =
  match Int_tbl.find i.inbound ingress_seq with
  | e -> e
  | exception Not_found ->
      let e = { packet = None; proposals = [] } in
      Int_tbl.add i.inbound ingress_seq e;
      e

(* After a membership change, deliveries that were waiting on a dead voter's
   proposal may already satisfy the new quorum — rescan the buffered table.
   Keys are collected (sorted, for a deterministic completion order) before
   completing, since completion removes entries. *)
let rescan_inbound i =
  if not i.crashed then begin
    let keys = Int_tbl.fold (fun k _ acc -> k :: acc) i.inbound [] in
    List.iter
      (fun k ->
        match Int_tbl.find_opt i.inbound k with
        | Some entry -> complete_inbound i ~ingress_seq:k entry
        | None -> ())
      (List.sort Int.compare keys)
  end

let add_proposal entry ~proposer ~virt =
  if not (has_proposal proposer entry.proposals) then
    entry.proposals <- (proposer, virt) :: entry.proposals

let on_guest_bound i ~ingress_seq ~(inner : Packet.t) =
  if is_stopwatch i then begin
    let entry = inbound_entry i ingress_seq in
    entry.packet <- Some inner;
    (* Propose: the guest's virtual time as of its last VM exit, plus
       delta_n. The proposal is multicast to the peer VMMs. *)
    let proposed =
      Time.add (Replica_group.member_virt i.member) i.config.Config.delta_n
    in
    let my_id = Replica_group.replica_id i.member in
    if trace_on i then
      emit i
        (Event.Packet_proposed
           {
             vm = i.vm_id;
             observer = my_id;
             proposer = my_id;
             ingress_seq;
             virt_ns = proposed;
           });
    add_proposal entry ~proposer:my_id ~virt:proposed;
    let payload =
      Packet.Proposal { vm = i.vm_id; ingress_seq; proposer = my_id; virt = proposed }
    in
    (match i.channel with
    | Some ep -> Sw_net.Multicast.publish ep ~size:proposal_size payload
    | None ->
        List.iter
          (fun peer ->
            let pkt =
              Packet.make
                ~src:(Machine.address i.mach)
                ~dst:peer ~size:proposal_size
                ~seq:(Sw_net.Network.fresh_seq (Machine.network i.mach))
                payload
            in
            Machine.transmit i.mach pkt)
          i.peers);
    complete_inbound i ~ingress_seq entry
  end
  else begin
    (* Baseline: deliver after the emulation delay at the next exit. The
       arrival doubles as the chain's ingress stamp — there is no
       replicating ingress on the baseline path, so the hosting VMM is the
       edge that first sees the packet. *)
    if trace_on i then
      emit i
        (Event.Ingress_replicated
           {
             vm = i.vm_id;
             ingress_seq;
             copies = 1;
             size = inner.Packet.size;
           });
    let delivery =
      Time.add
        (Replica_group.member_virt i.member)
        baseline_inject_delay
    in
    insert_pending i
      { delivery; cls = 0; key = ingress_seq; event = Sw_vm.App.Packet_in inner }
  end

let on_proposal i ~ingress_seq ~proposer ~virt =
  if trace_on i then
    emit i
      (Event.Packet_proposed
         {
           vm = i.vm_id;
           observer = Replica_group.replica_id i.member;
           proposer;
           ingress_seq;
           virt_ns = virt;
         });
  let entry = inbound_entry i ingress_seq in
  add_proposal entry ~proposer ~virt;
  complete_inbound i ~ingress_seq entry

(* --- Guest sinks ------------------------------------------------------ *)

let make_sinks mach group_ref member_ref vm_id disk_cb dma_cb =
  let send ~seq ~instr:_ ~dst ~size ~payload =
    let inner = Packet.make ~src:(Address.Vm vm_id) ~dst ~size ~seq payload in
    let stopwatch =
      match Replica_group.mode !group_ref with
      | Replica_group.Stopwatch -> true
      | Replica_group.Baseline -> false
    in
    if stopwatch then begin
      let tunnel =
        Packet.make
          ~src:(Machine.address mach)
          ~dst:Address.Egress ~size:(size + 48)
          ~seq:(Sw_net.Network.fresh_seq (Machine.network mach))
          (Packet.Egress_tunnel
             { vm = vm_id; replica = Replica_group.replica_id !member_ref; inner })
      in
      Machine.transmit mach tunnel
    end
    else Machine.transmit mach inner
  in
  let disk ~kind ~bytes ~sequential ~tag ~instr:_ = disk_cb ~kind ~bytes ~sequential ~tag in
  let dma ~bytes ~tag ~instr:_ = dma_cb ~bytes ~tag in
  { Sw_vm.Guest.send; disk; dma }

(* --- Slice handling --------------------------------------------------- *)

(* Injects every pending interrupt due at [virt], in (delivery, cls, key)
   order. A top-level function rather than a local [loop] closure over [i]
   and [virt]: it runs at every VM exit and allocates nothing when nothing
   is due. *)
let rec inject_due i virt =
match i.pending with
  | hd :: rest when Time.(hd.delivery <= virt) ->
      i.pending <- rest;
      log_op i (L_inject hd.event);
      (match hd.event with
      | Sw_vm.App.Packet_in _ ->
          if trace_on i then
            emit i
              (Event.Packet_delivered
                 {
                   vm = i.vm_id;
                   replica = Replica_group.replica_id i.member;
                   seq = hd.key;
                   virt_ns = virt;
                 });
          Registry.Counter.incr i.m_net;
          (match i.last_net_virt with
          | Some prev ->
              let gap = Time.sub virt prev in
              Sw_sim.Samples.add i.inter_delivery (Time.to_float_ms gap);
              Registry.Histogram.observe i.h_inter gap
          | None -> ());
          i.last_net_virt <- Some virt
      | Sw_vm.App.Disk_done { tag } ->
          Registry.Counter.incr i.m_disk_irq;
          if trace_on i then
            emit i
              (Event.Disk_irq
                 {
                   vm = i.vm_id;
                   replica = Replica_group.replica_id i.member;
                   tag;
                   virt_ns = virt;
                 })
      | Sw_vm.App.Dma_done { tag } ->
          Registry.Counter.incr i.m_dma_irq;
          if trace_on i then
            emit i
              (Event.Dma_irq
                 {
                   vm = i.vm_id;
                   replica = Replica_group.replica_id i.member;
                   tag;
                   virt_ns = virt;
                 })
      | _ -> ());
      Sw_vm.Guest.inject i.guest hd.event;
      inject_due i virt
  | _ -> ()

let deliver_due i =
  inject_due i (Sw_vm.Guest.virt_now i.guest);
  log_op i L_timers;
  Sw_vm.Guest.deliver_due_timers i.guest

let on_slice_end t i =
  if i.crashed then ()
  else begin
  let branches = Config.slice_branches i.config in
  log_op i L_slice;
  Sw_vm.Guest.run_branches i.guest branches;
  (* Exits report the machine's own clock reading, as the real VMM would. *)
  let now = Machine.local_time t.mach in
  let virt = Sw_vm.Guest.virt_now i.guest in
  Replica_group.note_exit i.group i.member ~now ~virt ~instr:(Sw_vm.Guest.instr i.guest);
  if trace_on i then
    emit i
      (Event.Vm_exit
         {
           vm = i.vm_id;
           replica = Replica_group.replica_id i.member;
           machine = Machine.id t.mach;
           virt_ns = virt;
           instr = Sw_vm.Guest.instr i.guest;
         });
  deliver_due i
  end

(* --- Disk device model ------------------------------------------------ *)

let on_disk_request t i ~kind ~bytes ~sequential ~tag =
  (* The disk device model's request and completion handling also run on the
     machine's Dom0 thread. *)
  Machine.dom0_work t.mach Config.dom0_per_packet;
  let virt_issue = Sw_vm.Guest.virt_now i.guest in
  let offset =
    if is_stopwatch i then i.config.Config.delta_d
    else baseline_inject_delay
  in
  let entry = { tag; delivery_virt = Time.add virt_issue offset; ready = false } in
  i.disk_waiting <- i.disk_waiting @ [ entry ];
  let disk_kind =
    match kind with `Read -> Sw_disk.Disk.Read | `Write -> Sw_disk.Disk.Write
  in
  Sw_disk.Disk.submit (Machine.disk t.mach) ~vm:i.vm_id ~kind:disk_kind ~bytes
    ~sequential (fun () ->
      Machine.dom0_work t.mach Config.dom0_per_packet;
      entry.ready <- true;
      (* The transfer must have completed by the virtual delivery time; if
         the guest's clock has already passed it, that's a Δd violation. *)
      if
        (not i.crashed)
        && is_stopwatch i
        && Time.(Sw_vm.Guest.virt_now i.guest > entry.delivery_virt)
      then begin
        Registry.Counter.incr i.m_delta_d;
        Replica_group.record_divergence i.group;
        if trace_on i then
          emit i
            (Event.Divergence
               {
                 vm = i.vm_id;
                 replica = Replica_group.replica_id i.member;
                 kind = Event.Delta_d_violation;
               })
      end;
      i.disk_waiting <- List.filter (fun e -> e.tag <> entry.tag) i.disk_waiting;
      if not i.crashed then
        insert_pending i
          {
            delivery = entry.delivery_virt;
            cls = 1;
            key = entry.tag;
            event = Sw_vm.App.Disk_done { tag = entry.tag };
          })

let on_dma_request t i ~bytes ~tag =
  Machine.dom0_work t.mach Config.dom0_per_packet;
  let virt_issue = Sw_vm.Guest.virt_now i.guest in
  let offset =
    if is_stopwatch i then i.config.Config.delta_d
    else baseline_inject_delay
  in
  let delivery_virt = Time.add virt_issue offset in
  Machine.dma_execute t.mach ~bytes (fun () ->
      if i.crashed then ()
      else begin
      if is_stopwatch i && Time.(Sw_vm.Guest.virt_now i.guest > delivery_virt) then begin
        Registry.Counter.incr i.m_delta_d;
        Replica_group.record_divergence i.group;
        if trace_on i then
          emit i
            (Event.Divergence
               {
                 vm = i.vm_id;
                 replica = Replica_group.replica_id i.member;
                 kind = Event.Delta_d_violation;
               })
      end;
      insert_pending i
        {
          delivery = delivery_virt;
          cls = 2;
          key = tag;
          event = Sw_vm.App.Dma_done { tag };
        }
      end)

(* --- Construction ----------------------------------------------------- *)

(* Any coordination message from a peer is a sign of life for the watchdog,
   whichever VMM observes it — the group's liveness state is shared. *)
let note_peer_seen i replica =
  match Replica_group.member_by_id i.group replica with
  | Some m ->
      Replica_group.note_seen i.group m ~now:(Engine.now (Machine.engine i.mach))
  | None -> ()

let handle_packet t (pkt : Packet.t) =
  match pkt.Packet.payload with
  | _ when Sw_net.Multicast.is_mcast pkt -> (
      match Sw_net.Multicast.group_of_packet pkt with
      | Some gid -> (
          match Int_tbl.find t.mcast_routes gid with
          | ep -> Sw_net.Multicast.handle ep pkt
          | exception Not_found -> Registry.Counter.incr t.m_unknown)
      | None -> Registry.Counter.incr t.m_unknown)
  | Packet.Guest_bound { vm; ingress_seq; inner } -> (
      match Int_tbl.find t.instances vm with
      | i -> if not i.crashed then on_guest_bound i ~ingress_seq ~inner
      | exception Not_found -> Registry.Counter.incr t.m_unknown)
  | Packet.Proposal { vm; ingress_seq; proposer; virt } -> (
      match Int_tbl.find t.instances vm with
      | i ->
          note_peer_seen i proposer;
          if not i.crashed then on_proposal i ~ingress_seq ~proposer ~virt
      | exception Not_found -> Registry.Counter.incr t.m_unknown)
  | Packet.Epoch_report { vm; replica; epoch; d; r } -> (
      match Int_tbl.find t.instances vm with
      | i ->
          note_peer_seen i replica;
          if not i.crashed then
            Replica_group.receive_report i.group ~at:i.member
              ~from_replica:replica ~epoch ~d ~r
      | exception Not_found -> Registry.Counter.incr t.m_unknown)
  | Packet.Vmm_alive { vm; replica } -> (
      match Int_tbl.find t.instances vm with
      | i -> note_peer_seen i replica
      | exception Not_found -> Registry.Counter.incr t.m_unknown)
  | _ -> (
      (* Baseline-mode guests receive their traffic directly. *)
      match pkt.Packet.dst with
      | Address.Vm vm -> (
          match Int_tbl.find t.instances vm with
          | i when not (is_stopwatch i) ->
              on_guest_bound i ~ingress_seq:pkt.Packet.seq ~inner:pkt
          | _ -> Registry.Counter.incr t.m_unknown
          | exception Not_found -> Registry.Counter.incr t.m_unknown)
      | _ -> Registry.Counter.incr t.m_unknown)

(* Rebuild the replica's guest by deterministic replay of its logged
   history (paper footnote 4: recovering a diverged replica). The clone is
   built muted — its sends and device requests are suppressed, since they
   already happened — then unmuted and swapped in. *)
let rebuild_with_vt i =
  if not i.config.Config.replay_log then
    invalid_arg "Vmm.rebuild: enable Config.replay_log to record history";
  let vt =
    Sw_vm.Virtual_time.create ~start:i.vt_start
      ~slope_ns_per_branch:i.config.Config.slope_ns_per_branch ()
  in
  let guest =
    Sw_vm.Guest.create ~app:(i.app_factory ()) ~vt
      ~pit_period ~sinks:i.sinks ()
  in
  Sw_vm.Guest.set_muted guest true;
  Sw_vm.Guest.boot guest;
  let branches = Config.slice_branches i.config in
  List.iter
    (fun entry ->
      match entry with
      | L_slice -> Sw_vm.Guest.run_branches guest branches
      | L_inject ev -> Sw_vm.Guest.inject guest ev
      | L_timers -> Sw_vm.Guest.deliver_due_timers guest
      | L_slope (at_instr, slope_ns_per_branch) ->
          Sw_vm.Virtual_time.set_slope vt ~at_instr ~slope_ns_per_branch)
    (List.rev i.log_rev);
  Sw_vm.Guest.set_muted guest false;
  (guest, vt)

let rebuild i = fst (rebuild_with_vt i)

(* Swap the rebuilt clone in as the live guest (the clone's clock becomes
   the live clock, so later epoch slope adjustments land on it). *)
let recover i =
  let guest, vt = rebuild_with_vt i in
  i.guest <- guest;
  i.vt <- vt

(* --- Crash, restart, liveness heartbeats ------------------------------ *)

let crashed i = i.crashed

let crash i =
  if not i.crashed then begin
    i.crashed <- true;
    if trace_on i then
      emit i
        (Event.Fault_replica_crash
           { vm = i.vm_id; replica = Replica_group.replica_id i.member })
  end

let reintegrate i ~from =
  if not i.crashed then invalid_arg "Vmm.reintegrate: replica is not crashed";
  if from.crashed then invalid_arg "Vmm.reintegrate: resync source is crashed";
  if from.vm_id <> i.vm_id || from == i then
    invalid_arg "Vmm.reintegrate: resync source must be a peer replica";
  if not i.config.Config.replay_log then
    invalid_arg "Vmm.reintegrate: enable Config.replay_log to resync";
  let now = Engine.now (Machine.engine i.mach) in
  (* Restarts can race the watchdog: if the crashed member was never ejected,
     eject it now so the reinstate below starts from consistent group state
     (and so the degradation metrics record the outage either way). *)
  if Replica_group.active i.member then Replica_group.eject i.group i.member ~now;
  (* Resync barrier: deterministic replay of the survivor's history — the
     replicas' logs are identical, so the rebuilt guest matches the
     survivor's bit for bit. *)
  i.log_rev <- from.log_rev;
  let guest, vt = rebuild_with_vt i in
  i.guest <- guest;
  i.vt <- vt;
  (* Copy the survivor's delivery horizon: agreed future injections,
     half-gathered proposal entries, and delivery-gap continuity. Entries are
     cloned where mutable. *)
  i.pending <- from.pending;
  Int_tbl.reset i.inbound;
  Int_tbl.iter
    (fun k (e : inbound_entry) ->
      Int_tbl.replace i.inbound k { packet = e.packet; proposals = e.proposals })
    from.inbound;
  i.last_net_virt <- from.last_net_virt;
  (* The survivor's in-flight disk transfers have deterministic virtual
     delivery slots — mirror them directly so both replicas inject the same
     interrupts at the same virtual times. (In-flight DMA completions carry
     no waiting record and are not recoverable; guests with outstanding DMA
     across a crash-restart boundary will diverge.) *)
  i.disk_waiting <- [];
  List.iter
    (fun (e : disk_entry) ->
      insert_pending i
        {
          delivery = e.delivery_virt;
          cls = 1;
          key = e.tag;
          event = Sw_vm.App.Disk_done { tag = e.tag };
        })
    from.disk_waiting;
  i.crashed <- false;
  let virt = Sw_vm.Guest.virt_now guest in
  Replica_group.reinstate i.group i.member ~now ~virt ~like:from.member;
  if trace_on i then begin
    emit i
      (Event.Fault_replica_restart
         { vm = i.vm_id; replica = Replica_group.replica_id i.member });
    emit i
      (Event.Degrade_reintegrated
         {
           vm = i.vm_id;
           replica = Replica_group.replica_id i.member;
           quorum = Replica_group.quorum i.group;
         })
  end;
  Machine.wake i.mach

(* Liveness heartbeats are engine-scheduled, independent of guest slices: an
   epoch- or skew-blocked replica stops exiting but keeps beating, so the
   watchdog only fires on genuinely dead (or unreachable) replicas. The tick
   keeps running across a crash window — muted while crashed — so a restarted
   replica resumes beating without re-arming. *)
let start_heartbeat (i : instance) period =
  let engine = Machine.engine i.mach in
  let my_id = Replica_group.replica_id i.member in
  let kind = Engine.kind engine "vmm.heartbeat" in
  let rec tick () =
    ignore
      (Engine.schedule_after ~kind engine period (fun () ->
           if not i.crashed then begin
             let payload = Packet.Vmm_alive { vm = i.vm_id; replica = my_id } in
             (match i.channel with
             | Some ep -> Sw_net.Multicast.publish ep ~size:64 payload
             | None ->
                 List.iter
                   (fun peer ->
                     let pkt =
                       Packet.make ~src:(Machine.address i.mach) ~dst:peer
                         ~size:64
                         ~seq:(Sw_net.Network.fresh_seq (Machine.network i.mach))
                         payload
                     in
                     Machine.transmit i.mach pkt)
                   i.peers);
             Replica_group.note_seen i.group i.member ~now:(Engine.now engine)
           end;
           tick ()))
  in
  tick ()

let create mach =
  let t =
    {
      mach;
      instances = Int_tbl.create 8;
      mcast_routes = Int_tbl.create 8;
      m_unknown =
        Registry.counter
          (Engine.metrics (Machine.engine mach))
          (Printf.sprintf "vmm.%d.unknown_packets" (Machine.id mach));
    }
  in
  (* Every inbound packet's device-model work queues on the machine's Dom0
     thread before the VMM acts on it — coresident VMs' traffic therefore
     delays each other's interrupt handling, which is the contention the
     proposal/median machinery has to mask. *)
  Sw_net.Network.register (Machine.network mach) (Machine.address mach)
    (fun pkt ->
      Machine.dom0_execute mach ~cost:Config.dom0_per_packet (fun () -> handle_packet t pkt));
  t

let host ?channel ?start t ~group ~app ~peers =
  let config = Replica_group.config group in
  let vm_id = Replica_group.vm group in
  if Int_tbl.mem t.instances vm_id then
    invalid_arg "Vmm.host: this machine already hosts a replica of that VM";
  (* The virtual clock starts at the median of the hosting VMMs' clock
     readings (Sec. IV-A), negotiated by the deployer; a lone replica starts
     at its own clock. *)
  let start = match start with Some s -> s | None -> Machine.local_time t.mach in
  let vt =
    Sw_vm.Virtual_time.create ~start
      ~slope_ns_per_branch:config.Config.slope_ns_per_branch ()
  in
  (* The guest, member and instance reference each other; tie the knot with
     forward references resolved after creation. *)
  let group_ref = ref group in
  let member_holder = ref None in
  let instance_holder = ref None in
  let disk_cb ~kind ~bytes ~sequential ~tag =
    match !instance_holder with
    | Some i -> on_disk_request t i ~kind ~bytes ~sequential ~tag
    | None -> invalid_arg "Vmm: disk request before instance ready"
  in
  let dma_cb ~bytes ~tag =
    match !instance_holder with
    | Some i -> on_dma_request t i ~bytes ~tag
    | None -> invalid_arg "Vmm: dma request before instance ready"
  in
  let member_ref =
    ref
      (Replica_group.add_member group ~machine:(Machine.id t.mach)
         ~wake:(fun () -> Machine.wake t.mach)
         ~apply_slope:(fun ~at_instr ~slope_ns_per_branch ->
           (* Through the instance once it exists: after a recovery the live
              clock is the rebuilt one, not the boot-time [vt]. *)
           match !instance_holder with
           | Some i ->
               log_op i (L_slope (at_instr, slope_ns_per_branch));
               Sw_vm.Virtual_time.set_slope i.vt ~at_instr ~slope_ns_per_branch
           | None ->
               Sw_vm.Virtual_time.set_slope vt ~at_instr ~slope_ns_per_branch)
         ~send_report:(fun ~epoch ~d ~r ->
           let payload =
             Packet.Epoch_report
               {
                 vm = vm_id;
                 replica =
                   (match !member_holder with
                   | Some m -> Replica_group.replica_id m
                   | None -> 0);
                 epoch;
                 d;
                 r;
               }
           in
           match !instance_holder with
           | Some { channel = Some ep; _ } ->
               Sw_net.Multicast.publish ep ~size:proposal_size payload
           | _ ->
               List.iter
                 (fun peer ->
                   let pkt =
                     Packet.make
                       ~src:(Machine.address t.mach)
                       ~dst:peer ~size:proposal_size
                       ~seq:(Sw_net.Network.fresh_seq (Machine.network t.mach))
                       payload
                   in
                   Machine.transmit t.mach pkt)
                 peers))
  in
  member_holder := Some !member_ref;
  let sinks = make_sinks t.mach group_ref member_ref vm_id disk_cb dma_cb in
  let guest =
    Sw_vm.Guest.create ~app:(app ()) ~vt ~pit_period
      ~sinks ()
  in
  let metrics = Engine.metrics (Machine.engine t.mach) in
  (* The prefix keys on (machine, vm): each replica of a VM lives on its own
     machine, so paths stay unique and deterministic. *)
  let prefix = Printf.sprintf "vmm.%d.vm%d" (Machine.id t.mach) vm_id in
  let i =
    {
      vm_id;
      group;
      member = !member_ref;
      guest;
      vt;
      crashed = false;
      app_factory = app;
      sinks;
      vt_start = start;
      log_rev = [];
      peers;
      mach = t.mach;
      config;
      inbound = Int_tbl.create 32;
      pending = [];
      disk_waiting = [];
      m_net = Registry.counter metrics (prefix ^ ".net_deliveries");
      m_disk_irq = Registry.counter metrics (prefix ^ ".disk_interrupts");
      m_dma_irq = Registry.counter metrics (prefix ^ ".dma_interrupts");
      m_delta_d = Registry.counter metrics (prefix ^ ".delta_d_violations");
      channel = None;
      last_net_virt = None;
      inter_delivery = Sw_sim.Samples.create ();
      h_inter = Registry.histogram metrics (prefix ^ ".inter_delivery_ns");
      trace = None;
      m_median_sources =
        Array.init config.Config.replicas (fun k ->
            Registry.sum metrics (Printf.sprintf "%s.median.source.r%d" prefix k));
      p_median =
        Sw_obs.Profile.timer
          (Engine.profile (Machine.engine t.mach))
          "vmm.median";
    }
  in
  instance_holder := Some i;
  (match channel with
  | Some g ->
      let ep =
        Sw_net.Multicast.endpoint g ~self:(Machine.address t.mach)
          ~transmit:(Machine.transmit t.mach)
          ~deliver:(fun pkt -> handle_packet t pkt)
          ()
      in
      i.channel <- Some ep;
      Int_tbl.replace t.mcast_routes (Sw_net.Multicast.group_id g) ep
  | None -> ());
  Int_tbl.add t.instances vm_id i;
  (* Membership changes can complete deliveries this replica was holding for
     a now-dead voter's proposal. *)
  Replica_group.on_membership_change group (fun () -> rescan_inbound i);
  Sw_vm.Guest.boot guest;
  Machine.attach t.mach
    {
      Machine.name = Printf.sprintf "vm%d/r%d" vm_id (Replica_group.replica_id i.member);
      runnable =
        (fun () -> (not i.crashed) && not (Replica_group.blocked group i.member));
      on_slice_end = (fun () -> on_slice_end t i);
    };
  Option.iter (start_heartbeat i) config.Config.vmm_heartbeat;
  i
