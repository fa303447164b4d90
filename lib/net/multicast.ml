module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Int_tbl = Sw_sim.Int_tbl

let is_mcast (pkt : Packet.t) =
  match pkt.payload with
  | Packet.Mcast_data _ | Packet.Mcast_nak _ | Packet.Mcast_heartbeat _ -> true
  | _ -> false

let group_of_packet (pkt : Packet.t) =
  match pkt.payload with
  | Packet.Mcast_data { group; _ }
  | Packet.Mcast_nak { group; _ }
  | Packet.Mcast_heartbeat { group; _ } ->
      Some group
  | _ -> None

type group = {
  network : Network.t;
  group_id : int;
  members : Address.t list;
  nak_delay : Time.t;
  nak_retries : int;
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

type endpoint = {
  g : group;
  self : Address.t;
  peers : Address.t list;  (** The other members, in member-list order. *)
  transmit : Packet.t -> unit;
  deliver : Packet.t -> unit;
  (* Sent history for retransmission, keyed by mseq: one of the mseq's
     copies, since a retransmission keeps only its size and payload. *)
  history : Packet.t Int_tbl.t;
  mutable next_mseq : int;
  rx_states : rx Int_tbl.t;  (** Keyed by the sender's [Address.index]. *)
  mutable partitioned : bool;
  (* Metric paths key on the member's address, not the group id: group ids
     come from a cross-domain atomic counter, so using them would make
     snapshot contents depend on worker scheduling. *)
  m_retransmissions : Sw_obs.Registry.Counter.t;
  m_naks : Sw_obs.Registry.Counter.t;
  m_abandoned : Sw_obs.Registry.Counter.t;
  m_partition_drops : Sw_obs.Registry.Counter.t;
}

(* Atomic: clouds on different domains allocate groups concurrently, and a
   plain [ref] incr could hand two groups the same id. Ids only need to be
   distinct, so cross-domain allocation order doesn't affect determinism. *)
let group_counter = Atomic.make 0

let group network ~members ?(nak_delay = Time.us 200) ?(nak_retries = 5)
    ?heartbeat () =
  if List.length members < 2 then invalid_arg "Multicast.group: need >= 2 members";
  if nak_retries < 1 then invalid_arg "Multicast.group: nak_retries must be >= 1";
  { network;
    group_id = 1 + Atomic.fetch_and_add group_counter 1;
    members; nak_delay; nak_retries; heartbeat }

let group_id g = g.group_id

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
    ignore
      (Engine.schedule_after engine period (fun () ->
           if e.next_mseq > 0 then
             List.iter
               (fun dst ->
                 send_to e ~dst ~size:64
                   (Packet.Mcast_heartbeat
                      { group = e.g.group_id; last_mseq = e.next_mseq - 1 }))
               e.peers;
           tick ()))
  in
  tick ()

let endpoint g ~self ?transmit ~deliver () =
  if not (List.exists (Address.equal self) g.members) then
    invalid_arg "Multicast.endpoint: self not a group member";
  let transmit =
    match transmit with Some f -> f | None -> Network.send g.network
  in
  let metrics = Engine.metrics (Network.engine g.network) in
  let addr = Address.to_string self in
  let e =
    {
      g;
      self;
      peers = List.filter (fun a -> not (Address.equal a self)) g.members;
      transmit;
      deliver;
      history = Int_tbl.create 64;
      next_mseq = 0;
      rx_states = Int_tbl.create 8;
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

let publish e ~size payload =
  let mseq = e.next_mseq in
  e.next_mseq <- mseq + 1;
  let wrapped = Packet.Mcast_data { group = e.g.group_id; mseq; inner = payload } in
  match e.peers with
  | [] -> ()
  | dst :: rest ->
      let pkt =
        Packet.make ~src:e.self ~dst ~size ~seq:(Network.fresh_seq e.g.network)
          wrapped
      in
      Int_tbl.replace e.history mseq pkt;
      xmit e pkt;
      publish_to e ~size wrapped rest

let rx_state e origin =
  let key = Address.index origin in
  match Int_tbl.find e.rx_states key with
  | rx -> rx
  | exception Not_found ->
      let rx =
        { next_expected = 0; buffered = Int_tbl.create 8;
          nak_attempt = 0; nak_at = 0; nak_through = -1 }
      in
      Int_tbl.add e.rx_states key rx;
      rx

(* Deliver any in-order buffered packets for this sender. *)
let rec flush e rx =
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
  ignore
    (Engine.schedule_after engine delay (fun () ->
         if rx.next_expected > rx.nak_through then rx.nak_attempt <- 0
         else begin
           if rx.next_expected > rx.nak_at then begin
             rx.nak_at <- rx.next_expected;
             rx.nak_attempt <- 1
           end;
           if rx.nak_attempt > e.g.nak_retries then begin
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
         end))

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
  | Packet.Mcast_data { group; mseq; inner } ->
      if group <> e.g.group_id then ()
      else begin
        let rx = rx_state e pkt.src in
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
        for mseq = from_mseq to to_mseq do
          match Int_tbl.find_opt e.history mseq with
          | None -> ()
          | Some original ->
              Sw_obs.Registry.Counter.incr e.m_retransmissions;
              let pkt' =
                Packet.make ~src:e.self ~dst:pkt.src ~size:original.Packet.size
                  ~seq:(Network.fresh_seq e.g.network) original.Packet.payload
              in
              xmit e pkt'
        done
  | Packet.Mcast_heartbeat { group; last_mseq } ->
      if group <> e.g.group_id then ()
      else begin
        let rx = rx_state e pkt.src in
        if last_mseq >= rx.next_expected then
          request_missing e pkt.src rx ~through:last_mseq
      end
  | _ -> invalid_arg "Multicast.handle: not a multicast packet"

let retransmissions e = Sw_obs.Registry.Counter.value e.m_retransmissions
let gaps_abandoned e = Sw_obs.Registry.Counter.value e.m_abandoned
let partition_drops e = Sw_obs.Registry.Counter.value e.m_partition_drops
let set_partitioned e on = e.partitioned <- on
let partitioned e = e.partitioned

let rec reserve_group_ids n =
  let cur = Atomic.get group_counter in
  if cur < n && not (Atomic.compare_and_set group_counter cur n) then
    reserve_group_ids n
