module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Int_tbl = Sw_obs.Int_tbl

(* Unanswered NAKs of one gap before the receiver abandons it. *)
let nak_retries = 5

type group = {
  network : Network.t;
  group_id : int;
  members : Address.t array;
  nak_delay : Time.t;
  heartbeat : Time.t option;
}

(* Per-sender receive state at one endpoint. NAK recovery is a bounded
   retry loop: one outstanding cycle per sender, exponential backoff between
   attempts, and after [nak_retries] re-sends of the same leading gap the
   gap is abandoned (skipped over) so a permanently lost packet cannot stall
   the receiver forever. *)
type rx = {
  mutable next_expected : int;
  buffered : Packet.t Int_tbl.t;  (** Out-of-order arrivals, by mseq. *)
  mutable nak_attempt : int;  (** 0 = no cycle outstanding; else attempt #. *)
  mutable nak_at : int;  (** [next_expected] when the current gap was first NAKed. *)
  mutable nak_through : int;  (** Highest mseq known to exist from this sender. *)
}

(* The transmit window. [history] is a ring holding, for each mseq in
   [[pruned, next_mseq)], one of its copies (a retransmission keeps only
   its size and payload) at index [mseq land (capacity - 1)]; the capacity
   is a power of two and doubles when the window fills. A NAK asks from
   the receiver's [next_expected], which only moves forward, and every
   [Mcast_data] carries its publisher's [next_expected] for each member
   (its receive horizon). So once every peer has reported a horizon past
   [mseq], no NAK can ask for it again, and the window slides past it.
   [acked] holds, by member position, the highest horizon that member has
   reported for this endpoint ([max_int] at [self], which reports
   nothing). A member that crashes, is partitioned off or never publishes
   keeps its last report, which only holds entries longer. *)
type endpoint = {
  g : group;
  self : Address.t;
  self_pos : int;  (** [self]'s position in the member array. *)
  peers : Address.t list;  (** The other members, in member-list order. *)
  transmit : Packet.t -> unit;
  deliver : Packet.t -> unit;
  mutable history : Packet.t array;
  mutable pruned : int;  (** Lowest mseq still in [history]. *)
  mutable next_mseq : int;
  acked : int array;
  rx_states : rx option array;
      (** By the sender's member position; made on its first packet. *)
  mutable partitioned : bool;
  (* Metric paths key on the member's address, not the group id. *)
  m_retransmissions : Sw_obs.Registry.Counter.t;
  m_naks : Sw_obs.Registry.Counter.t;
  m_abandoned : Sw_obs.Registry.Counter.t;
  m_partition_drops : Sw_obs.Registry.Counter.t;
}

let group network ~id ~members ?(nak_delay = Time.us 200) ?heartbeat () =
  if List.length members < 2 then invalid_arg "Multicast.group: need >= 2 members";
  { network; group_id = id; members = Array.of_list members; nak_delay; heartbeat }

let group_id g = g.group_id

(* [a]'s position in [members] at or after [i], or -1: a top-level loop, so
   the per-packet lookup builds no closure. *)
let rec position members a i =
  if i = Array.length members then -1
  else if Address.equal members.(i) a then i
  else position members a (i + 1)

(* What a pruned ring slot holds, so [Marshal] cannot reach the packet. *)
let vacant =
  Packet.make ~src:Address.Ingress ~dst:Address.Ingress ~size:1 ~seq:0
    Packet.Empty

let initial_window = 16

(* All outgoing traffic funnels through here so a partition window can cut
   the endpoint off in one place. *)
let xmit e pkt =
  if e.partitioned then Sw_obs.Registry.Counter.incr e.m_partition_drops
  else e.transmit pkt

let send_to e ~dst ~size payload =
  let pkt =
    Packet.make ~src:e.self ~dst ~size ~seq:(Network.fresh_seq e.g.network) payload
  in
  xmit e pkt

let start_heartbeat e period =
  let engine = Network.engine e.g.network in
  let rec tick () =
    Engine.schedule_after engine period (fun () ->
        if e.next_mseq > 0 then
          List.iter
            (fun dst ->
              send_to e ~dst ~size:64
                (Packet.Mcast_heartbeat
                   { group = e.g.group_id; last_mseq = e.next_mseq - 1 }))
            e.peers;
        tick ())
  in
  tick ()

let endpoint g ~self ?transmit ~deliver () =
  let self_pos = position g.members self 0 in
  if self_pos < 0 then invalid_arg "Multicast.endpoint: self not a group member";
  let transmit =
    match transmit with Some f -> f | None -> Network.send g.network
  in
  let metrics = Engine.metrics (Network.engine g.network) in
  let addr = Address.to_string self in
  let e =
    {
      g;
      self;
      self_pos;
      peers =
        List.filter (fun a -> not (Address.equal a self)) (Array.to_list g.members);
      transmit;
      deliver;
      history = Array.make initial_window vacant;
      pruned = 0;
      next_mseq = 0;
      acked =
        Array.init (Array.length g.members) (fun i ->
            if i = self_pos then max_int else 0);
      rx_states = Array.make (Array.length g.members) None;
      partitioned = false;
      m_retransmissions =
        Sw_obs.Registry.counter metrics
          (Printf.sprintf "net.mcast.%s.retransmissions" addr);
      m_naks =
        Sw_obs.Registry.counter metrics
          (Printf.sprintf "net.mcast.%s.naks" addr);
      m_abandoned =
        Sw_obs.Registry.counter metrics
          (Printf.sprintf "net.mcast.%s.gaps_abandoned" addr);
      m_partition_drops =
        Sw_obs.Registry.counter metrics
          (Printf.sprintf "net.mcast.%s.partition_drops" addr);
    }
  in
  Option.iter (start_heartbeat e) g.heartbeat;
  e

let rec publish_to e ~size wrapped = function
  | [] -> ()
  | dst :: rest ->
      send_to e ~dst ~size wrapped;
      publish_to e ~size wrapped rest

(* This endpoint's receive horizon, by member position: 0 for [self] and
   for a member nothing has arrived from yet. *)
let horizon e =
  let h = Array.make (Array.length e.rx_states) 0 in
  for i = 0 to Array.length h - 1 do
    match e.rx_states.(i) with
    | Some rx -> h.(i) <- rx.next_expected
    | None -> ()
  done;
  h

let rx_state e from =
  match e.rx_states.(from) with
  | Some rx -> rx
  | None ->
      let rx =
        { next_expected = 0; buffered = Int_tbl.create 8;
          nak_attempt = 0; nak_at = 0; nak_through = -1 }
      in
      e.rx_states.(from) <- Some rx;
      rx

(* Double the ring, keeping each live entry at its new index. *)
let grow e =
  let old = e.history in
  let cap = 2 * Array.length old in
  let ring = Array.make cap vacant in
  for mseq = e.pruned to e.next_mseq - 1 do
    ring.(mseq land (cap - 1)) <- old.(mseq land (Array.length old - 1))
  done;
  e.history <- ring

let record e mseq pkt =
  if mseq - e.pruned = Array.length e.history then grow e;
  e.history.(mseq land (Array.length e.history - 1)) <- pkt

(* Slide the window up to the lowest horizon any peer has reported. Every
   [acked] entry and [next_mseq] only grow, so the minimum never falls
   below [pruned]. *)
let prune e =
  let low = ref e.next_mseq in
  for i = 0 to Array.length e.acked - 1 do
    if e.acked.(i) < !low then low := e.acked.(i)
  done;
  let mask = Array.length e.history - 1 in
  for mseq = e.pruned to !low - 1 do
    e.history.(mseq land mask) <- vacant
  done;
  e.pruned <- !low

let note_horizon e ~from horizon =
  if Array.length horizon = Array.length e.acked then begin
    let reported = horizon.(e.self_pos) in
    if reported > e.acked.(from) then begin
      e.acked.(from) <- reported;
      prune e
    end
  end

let publish e ~size payload =
  let mseq = e.next_mseq in
  e.next_mseq <- mseq + 1;
  let wrapped =
    Packet.Mcast_data
      { group = e.g.group_id; mseq; horizon = horizon e; inner = payload }
  in
  match e.peers with
  | [] -> ()
  | dst :: rest ->
      let pkt =
        Packet.make ~src:e.self ~dst ~size ~seq:(Network.fresh_seq e.g.network)
          wrapped
      in
      record e mseq pkt;
      xmit e pkt;
      publish_to e ~size wrapped rest

(* Deliver any in-order buffered packets for this sender. An in-order
   arrival usually finds nothing buffered, so test that before the lookup
   rather than raise [Not_found] once per data packet. *)
let rec flush e rx =
  if Int_tbl.length rx.buffered > 0 then
    match Int_tbl.find rx.buffered rx.next_expected with
    | exception Not_found -> ()
    | pkt ->
        Int_tbl.remove rx.buffered rx.next_expected;
        rx.next_expected <- rx.next_expected + 1;
        e.deliver pkt;
        flush e rx

(* Give up on the leading gap: skip [next_expected] forward to the smallest
   buffered mseq (or just past the known high-water mark if nothing is
   buffered) and flush. Late retransmissions of the skipped mseqs then land
   in the ordinary duplicate path. *)
let abandon_gap e rx =
  Sw_obs.Registry.Counter.incr e.m_abandoned;
  let smallest =
    Int_tbl.fold
      (fun mseq _ acc ->
        match acc with Some m when m <= mseq -> acc | _ -> Some mseq)
      rx.buffered None
  in
  (match smallest with
  | Some m -> rx.next_expected <- m
  | None -> rx.next_expected <- rx.nak_through + 1);
  flush e rx

(* One NAK cycle per sender: attempt [k] fires after nak_delay * 2^(k-1).
   Filling the gap before the timer fires parks the cycle; filling it
   partially (the leading edge advanced) resets the retry budget for the new
   leading gap. After [nak_retries] re-sends with no progress the gap is
   abandoned rather than retried forever. *)
let rec nak_cycle e origin rx =
  let engine = Network.engine e.g.network in
  let delay = Time.mul_int e.g.nak_delay (1 lsl min (rx.nak_attempt - 1) 16) in
  Engine.schedule_after engine delay (fun () ->
      if rx.next_expected > rx.nak_through then rx.nak_attempt <- 0
      else begin
        if rx.next_expected > rx.nak_at then begin
          rx.nak_at <- rx.next_expected;
          rx.nak_attempt <- 1
        end;
        if rx.nak_attempt > nak_retries then begin
          abandon_gap e rx;
          if rx.next_expected <= rx.nak_through then begin
            rx.nak_attempt <- 1;
            rx.nak_at <- rx.next_expected;
            nak_cycle e origin rx
          end
          else rx.nak_attempt <- 0
        end
        else begin
          Sw_obs.Registry.Counter.incr e.m_naks;
          send_to e ~dst:origin ~size:64
            (Packet.Mcast_nak
               {
                 group = e.g.group_id;
                 origin;
                 from_mseq = rx.next_expected;
                 to_mseq = rx.nak_through;
               });
          rx.nak_attempt <- rx.nak_attempt + 1;
          nak_cycle e origin rx
        end
      end)

let request_missing e origin rx ~through =
  if through > rx.nak_through then rx.nak_through <- through;
  if rx.nak_attempt = 0 && rx.next_expected <= rx.nak_through then begin
    rx.nak_attempt <- 1;
    rx.nak_at <- rx.next_expected;
    nak_cycle e origin rx
  end

let unwrap_data (pkt : Packet.t) ~mseq ~inner =
  { pkt with Packet.payload = inner; seq = mseq }

let handle e (pkt : Packet.t) =
  if e.partitioned then Sw_obs.Registry.Counter.incr e.m_partition_drops
  else
  match pkt.payload with
  | Packet.Mcast_data { group; mseq; horizon; inner } ->
      let from = position e.g.members pkt.src 0 in
      if group <> e.g.group_id || from < 0 then ()
      else begin
        note_horizon e ~from horizon;
        let rx = rx_state e from in
        if mseq < rx.next_expected then () (* duplicate *)
        else if mseq = rx.next_expected then begin
          (* In order: deliver it, then whatever it unblocks. [buffered]
             never holds [next_expected] between arrivals. *)
          rx.next_expected <- mseq + 1;
          e.deliver (unwrap_data pkt ~mseq ~inner);
          flush e rx
        end
        else begin
          Int_tbl.replace rx.buffered mseq (unwrap_data pkt ~mseq ~inner);
          request_missing e pkt.src rx ~through:(mseq - 1)
        end
      end
  | Packet.Mcast_nak { group; from_mseq; to_mseq; _ } ->
      if group <> e.g.group_id then ()
      else
        (* Below [pruned], the asker has since received everything. *)
        for mseq = max from_mseq e.pruned to min to_mseq (e.next_mseq - 1) do
          let original = e.history.(mseq land (Array.length e.history - 1)) in
          Sw_obs.Registry.Counter.incr e.m_retransmissions;
          let pkt' =
            Packet.make ~src:e.self ~dst:pkt.src ~size:original.Packet.size
              ~seq:(Network.fresh_seq e.g.network) original.Packet.payload
          in
          xmit e pkt'
        done
  | Packet.Mcast_heartbeat { group; last_mseq } ->
      let from = position e.g.members pkt.src 0 in
      if group <> e.g.group_id || from < 0 then ()
      else begin
        let rx = rx_state e from in
        if last_mseq >= rx.next_expected then
          request_missing e pkt.src rx ~through:last_mseq
      end
  | Packet.Empty | Packet.Guest_bound _ | Packet.Proposal _
  | Packet.Egress_tunnel _ | Packet.Epoch_report _ | Packet.Background _
  | Packet.Vmm_alive _ | Packet.Tcp _ | Packet.App _ ->
      invalid_arg "Multicast.handle: not a multicast packet"

let set_partitioned e on = e.partitioned <- on
