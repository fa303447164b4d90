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

module Int_tbl = Sw_obs.Int_tbl

(* A directed pair's key: both address indexes packed in one int, so a
   per-packet pair lookup allocates no tuple. Indexes stay below 2^31 for
   ids below 2^28. *)
let pair_key src dst = (Address.index src lsl 31) lor Address.index dst

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
  (* Address tables key on [Address.index], pair tables on [pair_key]. The
     handler and override entries carry their (target) address for the
     walks that need it back: the broadcast and [min_latency_to]. *)
  handlers : (Address.t * (Packet.t -> unit)) Int_tbl.t;
  routes : Address.t Int_tbl.t;
  link_overrides : (Address.t * link_params) Int_tbl.t;
  node_overrides : (Address.t * link_params) Int_tbl.t;
  link_states : link_state Int_tbl.t;  (* by (src, routed target) *)
  links : link Int_tbl.t;  (* by (src, dst) as addressed; see [link] *)
  mutable seq : int;
  (* Fault-injection state: an optional fabric-wide disturbance plus
     per-delivery-target disturbances, applied on top of the link's own
     parameters. Installed and cleared by sw_fault; [None]/empty costs one
     branch and zero extra RNG draws, so fault-free runs are bit-identical
     to pre-fault builds. *)
  mutable fault_all : disturbance option;
  fault_to : disturbance Int_tbl.t;
  m_delivered : Registry.Counter.t;
  m_undeliverable : Registry.Counter.t;
  m_lost : Registry.Counter.t;
  m_fault_lost : Registry.Counter.t;
  p_deliver : Sw_obs.Profile.timer;
  k_deliver : Engine.kind option;  (* boxed once, not per schedule *)
}

(* A directed (src, dst) pair resolved once: everything [send] would
   otherwise look up per packet. [state] is shared through [link_states]
   by every pair routed to the same target, so they keep one FIFO. The
   table of links is dropped by [register] and [set_route], whose results
   it caches; a delivery already scheduled keeps the link it was sent on. *)
and link = {
  net : t;
  target : Address.t;  (* [dst]'s route, or [dst] itself *)
  state : link_state;
  handler : (Packet.t -> unit) option;  (* [None]: undeliverable *)
  mutable delivered : Registry.Counter.t option;
      (* [net.link.<src>.<dst>.delivered], registered at the first
         delivery, so a pair that never delivers exports no counter. *)
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
    handlers = Int_tbl.create 64;
    routes = Int_tbl.create 16;
    link_overrides = Int_tbl.create 64;
    node_overrides = Int_tbl.create 16;
    link_states = Int_tbl.create 64;
    links = Int_tbl.create 64;
    seq = 0;
    fault_all = None;
    fault_to = Int_tbl.create 4;
    m_delivered = Registry.counter metrics "net.delivered";
    m_undeliverable = Registry.counter metrics "net.undeliverable";
    m_lost = Registry.counter metrics "net.lost";
    m_fault_lost = Registry.counter metrics "net.fault.lost";
    p_deliver = Sw_obs.Profile.timer (Engine.profile engine) "net.deliver";
    k_deliver = Some (Engine.kind engine "net.deliver");
  }

let engine t = t.engine

let fresh_seq t =
  t.seq <- t.seq + 1;
  t.seq

(* [register] and [set_route] are setup-time calls, most of them made
   before any traffic, so the usual drop finds the table empty. *)
let drop_links t = if Int_tbl.length t.links > 0 then Int_tbl.reset t.links

let register t addr handler =
  Int_tbl.replace t.handlers (Address.index addr) (addr, handler);
  drop_links t

let set_route t ~dst ~via =
  Int_tbl.replace t.routes (Address.index dst) via;
  drop_links t

let set_link t ~src ~dst params =
  Int_tbl.replace t.link_overrides (pair_key src dst) (dst, params)

let set_node_link t addr params =
  Int_tbl.replace t.node_overrides (Address.index addr) (addr, params)

let set_fault_all t d = t.fault_all <- d

let set_fault_to t addr = function
  | Some d -> Int_tbl.replace t.fault_to (Address.index addr) d
  | None -> Int_tbl.remove t.fault_to (Address.index addr)

(* A fault-free run takes the first branch and looks nothing up. *)
let disturbance_for t target =
  match t.fault_all with
  | None when Int_tbl.length t.fault_to = 0 -> None
  | all -> (
      match (all, Int_tbl.find_opt t.fault_to (Address.index target)) with
      | None, None -> None
      | (Some _ as d), None | None, (Some _ as d) -> d
      | Some a, Some b -> Some (combine_disturbance a b))

(* The effective target of a packet addressed to [dst]: its route, if one
   is set (e.g. [Vm v -> Ingress]), else [dst] itself. *)
let route t dst =
  match Int_tbl.find t.routes (Address.index dst) with
  | via -> via
  | exception Not_found -> dst

let node_override t addr =
  match Int_tbl.find t.node_overrides (Address.index addr) with
  | _, p -> Some p
  | exception Not_found -> None

let link_state t ~src ~dst =
  let key = pair_key src dst in
  match Int_tbl.find t.link_states key with
  | s -> s
  | exception Not_found ->
      let params =
        match Int_tbl.find t.link_overrides key with
        | _, p -> p
        | exception Not_found -> (
            match node_override t dst with
            | Some p -> p
            | None -> (
                match node_override t src with Some p -> p | None -> t.default))
      in
      let rng =
        match t.stream_seed with
        | None -> t.rng
        | Some seed ->
            Sw_sim.Prng.derive ~seed
              [
                0x1147L;
                Int64.of_int (Address.index src);
                Int64.of_int (Address.index dst);
              ]
      in
      let s = { params; rng; busy_until = Time.zero; last_arrival = Time.zero } in
      Int_tbl.add t.link_states key s;
      s

let new_link t ~src ~target ~handler =
  { net = t; target; state = link_state t ~src ~dst:target; handler; delivered = None }

let link t ~src ~dst =
  let key = pair_key src dst in
  match Int_tbl.find t.links key with
  | l -> l
  | exception Not_found ->
      let target = route t dst in
      let handler = Option.map snd (Int_tbl.find_opt t.handlers (Address.index target)) in
      let l = new_link t ~src ~target ~handler in
      Int_tbl.add t.links key l;
      l

let pair_counter l (pkt : Packet.t) =
  match l.delivered with
  | Some c -> c
  | None ->
      let c =
        Registry.counter (Engine.metrics l.net.engine)
          (pair_metric ~src:pkt.src ~dst:pkt.dst)
      in
      l.delivered <- Some c;
      c

let deliver_now l handler (pkt : Packet.t) =
  let t = l.net in
  Registry.Counter.incr t.m_delivered;
  Registry.Counter.incr (pair_counter l pkt);
  (* The handler is called directly unless profiling is on, so a delivery
     builds no closure for [Profile.time]. *)
  let p = Engine.profile t.engine in
  if Sw_obs.Profile.enabled p then
    Sw_obs.Profile.time p t.p_deliver (fun () -> handler pkt)
  else handler pkt

(* Hand a packet to its target's handler at the current instant, with the
   delivery-side accounting. Local deliveries reach this inside their
   "net.deliver" event; cross-shard packets reach it on the owning shard's
   engine inside the "xshard" event the conductor injected at the arrival
   instant the *sending* network computed. *)
let inject t ~target (pkt : Packet.t) =
  (* A cross-shard target arrives unresolved (the sender's shard has no
     routes for remote addresses); apply this fabric's own routing — e.g.
     [Vm v -> Ingress] — before the handler lookup, as [send] would. *)
  match Int_tbl.find t.handlers (Address.index (route t target)) with
  | exception Not_found -> Registry.Counter.incr t.m_undeliverable
  | _, handler -> deliver_now (link t ~src:pkt.src ~dst:pkt.dst) handler pkt

let deliver l (pkt : Packet.t) =
  match l.handler with Some h -> deliver_now l h pkt | None -> ()

let deliver_local l ~arrive (pkt : Packet.t) =
  let t = l.net in
  match l.handler with
  | None -> Registry.Counter.incr t.m_undeliverable
  | Some _ ->
      Engine.schedule_at ?kind:t.k_deliver t.engine arrive (fun () ->
          deliver l pkt)

let transmit l (pkt : Packet.t) =
  let t = l.net in
  let state = l.state in
  let p = state.params in
  let dist = disturbance_for t l.target in
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
    | None -> deliver_local l ~arrive pkt
    | Some r ->
        let owner = r.locate l.target in
        if owner <> r.shard then r.post ~dst:owner ~at:arrive ~target:l.target pkt
        else deliver_local l ~arrive pkt
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
  Int_tbl.iter
    (fun _ (addr, p) ->
      let sh = locate addr in
      if sh = self then begin
        if Time.(p.latency < !src_floor) then src_floor := p.latency
      end
      else if Time.(p.latency < floor.(sh)) then floor.(sh) <- p.latency)
    t.node_overrides;
  Int_tbl.iter
    (fun _ (dst, p) ->
      let sh = locate dst in
      if sh <> self && Time.(p.latency < floor.(sh)) then
        floor.(sh) <- p.latency)
    t.link_overrides;
  Array.iteri
    (fun d v -> if d <> self && Time.(!src_floor < v) then floor.(d) <- !src_floor)
    floor;
  floor

(* The broadcast walk is the one address-table walk whose order reaches the
   simulation (link state, draws, event order), so it sorts by index. Each
   copy travels on an uncached link of its own: its target is not the
   packet's [dst], and its counter is the (src, broadcast) pair's. *)
let broadcast t (pkt : Packet.t) =
  let src = Address.index pkt.src in
  let targets =
    Int_tbl.fold
      (fun key (addr, h) acc -> if key = src then acc else (key, addr, h) :: acc)
      t.handlers []
  in
  List.iter
    (fun (_, target, h) ->
      transmit (new_link t ~src:pkt.src ~target ~handler:(Some h)) pkt)
    (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) targets)

let send t (pkt : Packet.t) =
  match pkt.dst with
  | Address.Broadcast_addr -> broadcast t pkt
  | dst -> transmit (link t ~src:pkt.src ~dst) pkt
