module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Registry = Sw_obs.Registry

type link_params = {
  latency : Time.t;
  jitter : Time.t;
  bandwidth_bps : int;
  loss : float;
}

let lan =
  { latency = Time.us 100; jitter = Time.us 20; bandwidth_bps = 1_000_000_000; loss = 0. }

let wan =
  { latency = Time.ms 2; jitter = Time.us 300; bandwidth_bps = 100_000_000; loss = 0. }

type link_state = {
  params : link_params;
  rng : Sw_sim.Prng.t;
      (* Loss/jitter stream. Legacy mode: the network's shared generator
         (draw order = global delivery order). Keyed mode (sharded runs):
         a per-directed-pair stream derived from (seed, src, dst), whose
         draw order depends only on that pair's own traffic. *)
  mutable busy_until : Time.t;
  mutable last_arrival : Time.t;
}

type disturbance = { extra_loss : float; extra_latency : Time.t }

let combine_disturbance a b =
  {
    extra_loss = 1. -. ((1. -. a.extra_loss) *. (1. -. b.extra_loss));
    extra_latency = Time.add a.extra_latency b.extra_latency;
  }

module Addr_pair = struct
  type t = Address.t * Address.t

  let equal (a1, b1) (a2, b2) = Address.equal a1 a2 && Address.equal b1 b2
  let hash = Hashtbl.hash
end

module Pair_tbl = Hashtbl.Make (Addr_pair)

module Addr_tbl = Hashtbl.Make (struct
  type t = Address.t

  let equal = Address.equal
  let hash = Address.hash
end)

(* Stable int64 identity for stream keying: variant tag in the low bits,
   id above. Never hashed — collisions would silently correlate streams. *)
let addr_key = function
  | Address.Vm i -> Int64.of_int ((i lsl 3) lor 1)
  | Address.Vmm i -> Int64.of_int ((i lsl 3) lor 2)
  | Address.Host i -> Int64.of_int ((i lsl 3) lor 3)
  | Address.Ingress -> 4L
  | Address.Egress -> 5L
  | Address.Broadcast_addr -> 6L

type remote = {
  locate : Address.t -> int;
      (* Owning shard of a delivery target; targets this network answers
         for (its own machines, its Ingress/Egress) map to [shard]. *)
  shard : int;
  post : dst:int -> at:Time.t -> target:Address.t -> Packet.t -> unit;
}

type t = {
  engine : Engine.t;
  default : link_params;
  stream_seed : int64 option;  (* [Some s]: keyed per-link streams *)
  mutable remote : remote option;
  rng : Sw_sim.Prng.t;
  handlers : (Packet.t -> unit) Addr_tbl.t;
  routes : Address.t Addr_tbl.t;
  link_overrides : link_params Pair_tbl.t;
  node_overrides : link_params Addr_tbl.t;
  link_states : link_state Pair_tbl.t;
  counters : Registry.Counter.t Pair_tbl.t;
  mutable seq : int;
  (* Fault-injection state: an optional fabric-wide disturbance plus
     per-delivery-target disturbances, applied on top of the link's own
     parameters. Installed and cleared by sw_fault; [None]/empty costs one
     branch and zero extra RNG draws, so fault-free runs are bit-identical
     to pre-fault builds. *)
  mutable fault_all : disturbance option;
  fault_to : disturbance Addr_tbl.t;
  m_delivered : Registry.Counter.t;
  m_undeliverable : Registry.Counter.t;
  m_lost : Registry.Counter.t;
  m_fault_lost : Registry.Counter.t;
  p_deliver : Sw_obs.Profile.timer;
}

let pair_metric ~src ~dst =
  Printf.sprintf "net.link.%s.%s.delivered" (Address.to_string src)
    (Address.to_string dst)

let create ?stream_seed engine ~default =
  let metrics = Engine.metrics engine in
  {
    engine;
    default;
    stream_seed;
    remote = None;
    rng = Engine.rng engine;
    handlers = Addr_tbl.create 64;
    routes = Addr_tbl.create 16;
    link_overrides = Pair_tbl.create 64;
    node_overrides = Addr_tbl.create 16;
    link_states = Pair_tbl.create 64;
    counters = Pair_tbl.create 64;
    seq = 0;
    fault_all = None;
    fault_to = Addr_tbl.create 4;
    m_delivered = Registry.counter metrics "net.delivered";
    m_undeliverable = Registry.counter metrics "net.undeliverable";
    m_lost = Registry.counter metrics "net.lost";
    m_fault_lost = Registry.counter metrics "net.fault.lost";
    p_deliver = Sw_obs.Profile.timer (Engine.profile engine) "net.deliver";
  }

let engine t = t.engine

let fresh_seq t =
  t.seq <- t.seq + 1;
  t.seq

let register t addr handler = Addr_tbl.replace t.handlers addr handler
let registered t addr = Addr_tbl.mem t.handlers addr
let set_route t ~dst ~via = Addr_tbl.replace t.routes dst via
let clear_route t ~dst = Addr_tbl.remove t.routes dst

let set_link t ~src ~dst params =
  Pair_tbl.replace t.link_overrides (src, dst) params

let set_node_link t addr params = Addr_tbl.replace t.node_overrides addr params

let set_fault_all t d = t.fault_all <- d

let set_fault_to t addr = function
  | Some d -> Addr_tbl.replace t.fault_to addr d
  | None -> Addr_tbl.remove t.fault_to addr

let disturbance_for t target =
  match (t.fault_all, Addr_tbl.find_opt t.fault_to target) with
  | None, None -> None
  | (Some _ as d), None | None, (Some _ as d) -> d
  | Some a, Some b -> Some (combine_disturbance a b)

let link_state t pair =
  match Pair_tbl.find_opt t.link_states pair with
  | Some s -> s
  | None ->
      let params =
        match Pair_tbl.find_opt t.link_overrides pair with
        | Some p -> p
        | None -> (
            let src, dst = pair in
            match Addr_tbl.find_opt t.node_overrides dst with
            | Some p -> p
            | None -> (
                match Addr_tbl.find_opt t.node_overrides src with
                | Some p -> p
                | None -> t.default))
      in
      let rng =
        match t.stream_seed with
        | None -> t.rng
        | Some seed ->
            let src, dst = pair in
            Sw_sim.Prng.derive ~seed [ 0x1147L; addr_key src; addr_key dst ]
      in
      let s = { params; rng; busy_until = Time.zero; last_arrival = Time.zero } in
      Pair_tbl.add t.link_states pair s;
      s

let pair_counter t ((src, dst) as pair) =
  match Pair_tbl.find_opt t.counters pair with
  | Some c -> c
  | None ->
      let c = Registry.counter (Engine.metrics t.engine) (pair_metric ~src ~dst) in
      Pair_tbl.add t.counters pair c;
      c

(* Hand a packet to its target's handler at the current instant, with the
   delivery-side accounting. Local deliveries reach this inside their
   "net.deliver" event; cross-shard packets reach it on the owning shard's
   engine inside the "xshard" event the conductor injected at the arrival
   instant the *sending* network computed. *)
let inject t ~target (pkt : Packet.t) =
  (* A cross-shard target arrives unresolved (the sender's shard has no
     routes for remote addresses); apply this fabric's own routing — e.g.
     [Vm v -> Ingress] — before the handler lookup, as [send] would. *)
  let target =
    match Addr_tbl.find_opt t.routes target with Some via -> via | None -> target
  in
  match Addr_tbl.find_opt t.handlers target with
  | None -> Registry.Counter.incr t.m_undeliverable
  | Some handler ->
      Registry.Counter.incr t.m_delivered;
      Registry.Counter.incr (pair_counter t (pkt.src, pkt.dst));
      Sw_obs.Profile.time
        (Engine.profile t.engine)
        t.p_deliver
        (fun () -> handler pkt)

let deliver_via t ~target (pkt : Packet.t) =
  let state = link_state t (pkt.src, target) in
  let p = state.params in
  let dist = disturbance_for t target in
  if p.loss > 0. && Sw_sim.Prng.float state.rng < p.loss then
    Registry.Counter.incr t.m_lost
  else if
    match dist with
    | Some d when d.extra_loss > 0. -> Sw_sim.Prng.float state.rng < d.extra_loss
    | _ -> false
  then Registry.Counter.incr t.m_fault_lost
  else begin
    let now = Engine.now t.engine in
    let serialisation =
      if p.bandwidth_bps <= 0 then Time.zero
      else
        Time.ns
          (int_of_float
             (Float.round (float_of_int (pkt.size * 8) *. 1e9 /. float_of_int p.bandwidth_bps)))
    in
    let depart = Time.add (Time.max now state.busy_until) serialisation in
    state.busy_until <- depart;
    let jitter =
      if Time.equal p.jitter Time.zero then Time.zero
      else Time.ns (Sw_sim.Prng.int state.rng (1 + p.jitter))
    in
    let extra_latency =
      match dist with Some d -> d.extra_latency | None -> Time.zero
    in
    (* A link is one physical pipe: deliveries are FIFO, so jitter may delay
       but never reorder packets within a pair. *)
    let arrive =
      Time.max state.last_arrival
        (Time.add depart (Time.add p.latency (Time.add jitter extra_latency)))
    in
    state.last_arrival <- arrive;
    (* The sender owns the link end to end — queueing, loss, jitter, FIFO —
       so a cross-shard hop changes only where the handler runs, never the
       arrival instant. *)
    match t.remote with
    | Some r when r.locate target <> r.shard ->
        r.post ~dst:(r.locate target) ~at:arrive ~target pkt
    | _ -> (
        match Addr_tbl.find_opt t.handlers target with
        | None -> Registry.Counter.incr t.m_undeliverable
        | Some handler ->
            ignore
              (Engine.schedule_at ~kind:"net.deliver" t.engine arrive (fun () ->
                   Registry.Counter.incr t.m_delivered;
                   Registry.Counter.incr (pair_counter t (pkt.src, pkt.dst));
                   Sw_obs.Profile.time
                     (Engine.profile t.engine)
                     t.p_deliver
                     (fun () -> handler pkt))))
  end

let set_remote t ~shard ~locate ~post =
  t.remote <- Some { shard; locate; post }

(* Per-destination-shard latency floors, for a conductor's lookahead
   matrix. A hop from this network into shard [d <> self] can only be
   priced by the default, a pair override whose delivery target locates to
   [d], a node override on a target in [d], or a node override on one of
   this shard's own nodes (src side — it can price a hop to any shard).
   Overrides on intra-shard pairs — targets locating to [self] — never
   carry cross-shard traffic and are excluded, which is the whole point:
   a fast rack-local link must not shrink every pair's window. Jitter,
   serialization, FIFO ordering, and fault disturbances only add delay, so
   the propagation latency is a sound lower bound. *)
let min_latency_to t ~locate ~self ~shards =
  let floor = Array.make shards t.default.latency in
  let src_floor = ref t.default.latency in
  Addr_tbl.iter
    (fun addr p ->
      let sh = locate addr in
      if sh = self then begin
        if Time.(p.latency < !src_floor) then src_floor := p.latency
      end
      else if Time.(p.latency < floor.(sh)) then floor.(sh) <- p.latency)
    t.node_overrides;
  Pair_tbl.iter
    (fun (_, dst) p ->
      let sh = locate dst in
      if sh <> self && Time.(p.latency < floor.(sh)) then
        floor.(sh) <- p.latency)
    t.link_overrides;
  Array.iteri
    (fun d v -> if d <> self && Time.(!src_floor < v) then floor.(d) <- !src_floor)
    floor;
  floor

let send t (pkt : Packet.t) =
  match pkt.dst with
  | Address.Broadcast_addr ->
      Addr_tbl.iter
        (fun addr _ ->
          if not (Address.equal addr pkt.src) then deliver_via t ~target:addr pkt)
        t.handlers
  | dst ->
      let target =
        match Addr_tbl.find_opt t.routes dst with Some via -> via | None -> dst
      in
      deliver_via t ~target pkt

let count t ~src ~dst =
  match Pair_tbl.find_opt t.counters (src, dst) with
  | Some c -> Registry.Counter.value c
  | None -> 0

let delivered t = Registry.Counter.value t.m_delivered
let undeliverable t = Registry.Counter.value t.m_undeliverable
let lost t = Registry.Counter.value t.m_lost

let reset_counters t =
  (* Reset handles in place: the registry keeps the same counter cells, so
     cached handles and future snapshots stay coherent. *)
  Pair_tbl.iter (fun _ c -> Registry.Counter.reset c) t.counters;
  Registry.Counter.reset t.m_delivered;
  Registry.Counter.reset t.m_undeliverable;
  Registry.Counter.reset t.m_lost;
  Registry.Counter.reset t.m_fault_lost
