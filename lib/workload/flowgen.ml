module Time = Sw_sim.Time
module Prng = Sw_sim.Prng
module Host = Stopwatch.Host
module Tcp_host = Sw_apps.Tcp_host
module Registry = Sw_obs.Registry

type cls = { name : string; weight : float; resp_bytes : int; cached : bool }

type config = {
  arrival : Arrival.t;
  classes : cls list;
  keyspace : Keyspace.t;
  pool : int;
  max_per_conn : int;
  request_bytes : int;
  until : Time.t;
}

let validate config =
  Arrival.validate config.arrival;
  if config.pool < 1 then invalid_arg "Flowgen: pool < 1";
  if config.max_per_conn < 0 then invalid_arg "Flowgen: negative max_per_conn";
  if config.request_bytes <= 0 then invalid_arg "Flowgen: request_bytes <= 0";
  if config.classes = [] then invalid_arg "Flowgen: empty service mix";
  List.iter
    (fun c ->
      if c.weight < 0. then invalid_arg "Flowgen: negative class weight";
      if c.resp_bytes <= 0 then invalid_arg "Flowgen: resp_bytes <= 0")
    config.classes;
  if List.for_all (fun c -> c.weight = 0.) config.classes then
    invalid_arg "Flowgen: all class weights zero"

(* One keep-alive pool slot. [retiring] is set once the slot has carried its
   request budget; the connection is actually closed (and the slot freed for
   a fresh one) only when its last in-flight response has drained, so churn
   never loses responses. *)
type slot = {
  mutable conn : Tcp_host.conn option;
  mutable established : bool;
  mutable used : int;
  mutable inflight : int;
  mutable retiring : bool;
  backlog : (Sw_net.Msg.t * int) Queue.t;
}

type meters = {
  prefix : string;
  c_issued : Registry.Counter.t;
  c_completed : Registry.Counter.t;
  c_hits : Registry.Counter.t;
  c_misses : Registry.Counter.t;
  c_conns : Registry.Counter.t;
  g_inflight : Registry.Gauge.t;
  h_resp : Registry.Histogram.t;
  h_hit : Registry.Histogram.t;
  h_miss : Registry.Histogram.t;
  h_cls : Registry.Histogram.t array;
  tier_hits : (int, Registry.Counter.t) Hashtbl.t;
  registry : Registry.t;
}

type t = {
  host : Host.t;
  dst : Sw_net.Address.t;
  tcp : Tcp_host.t;
  config : config;
  classes : cls array;
  cum_weights : float array;
  rng : Prng.t;
  gen : Arrival.gen;
  slots : slot array;
  inflight : (int, Time.t * int * int) Hashtbl.t;
      (** seq -> (issue instant, class index, slot index). *)
  m : meters;
  mutable next_seq : int;
  mutable issued : int;
  mutable completed : int;
  mutable hits : int;
  mutable misses : int;
}

let meters registry ~prefix classes =
  let c name = Registry.counter registry (prefix ^ name)
  and h name = Registry.histogram registry (prefix ^ name) in
  {
    prefix;
    c_issued = c ".issued";
    c_completed = c ".completed";
    c_hits = c ".hits";
    c_misses = c ".misses";
    c_conns = c ".conns_opened";
    g_inflight = Registry.gauge registry (prefix ^ ".inflight");
    h_resp = h ".response_ns";
    h_hit = h ".response_hit_ns";
    h_miss = h ".response_miss_ns";
    h_cls =
      Array.map
        (fun cl -> h (Printf.sprintf ".cls.%s.response_ns" cl.name))
        classes;
    tier_hits = Hashtbl.create 4;
    registry;
  }

let tier_counter m tier =
  match Hashtbl.find_opt m.tier_hits tier with
  | Some c -> c
  | None ->
      let c =
        Registry.counter m.registry
          (Printf.sprintf "%s.hits.tier%d" m.prefix tier)
      in
      Hashtbl.replace m.tier_hits tier c;
      c

let on_response t ~seq ~tier =
  match Hashtbl.find_opt t.inflight seq with
  | None -> ()
  | Some (issued_at, cls_idx, slot_idx) ->
      Hashtbl.remove t.inflight seq;
      t.completed <- t.completed + 1;
      let lat = Time.sub (Host.now t.host) issued_at in
      if Registry.enabled t.m.registry then begin
        Registry.Counter.incr t.m.c_completed;
        Registry.Histogram.observe t.m.h_resp lat;
        Registry.Histogram.observe t.m.h_cls.(cls_idx) lat;
        if tier >= 0 then begin
          Registry.Counter.incr t.m.c_hits;
          Registry.Counter.incr (tier_counter t.m tier);
          Registry.Histogram.observe t.m.h_hit lat
        end
        else begin
          Registry.Counter.incr t.m.c_misses;
          Registry.Histogram.observe t.m.h_miss lat
        end
      end;
      if tier >= 0 then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
      let s = t.slots.(slot_idx) in
      s.inflight <- s.inflight - 1;
      if s.retiring && s.inflight = 0 then begin
        Option.iter Tcp_host.close s.conn;
        s.conn <- None;
        s.established <- false;
        s.retiring <- false;
        s.used <- 0
      end

let handle_msg t ~payload ~bytes:_ =
  match payload with
  | Sw_net.Msg.Wl_resp { seq; tier } -> on_response t ~seq ~tier
  | _ -> ()

let open_slot t s =
  if Registry.enabled t.m.registry then Registry.Counter.incr t.m.c_conns;
  let conn =
    Tcp_host.connect t.tcp ~dst:t.dst
      ~on_connected:(fun () ->
        s.established <- true;
        Queue.iter
          (fun (payload, bytes) ->
            match s.conn with
            | Some c -> Tcp_host.send c ~payload ~bytes
            | None -> ())
          s.backlog;
        Queue.clear s.backlog)
      ~on_msg:(fun ~payload ~bytes -> handle_msg t ~payload ~bytes)
      ()
  in
  s.conn <- Some conn

let pick_class t =
  let total = t.cum_weights.(Array.length t.cum_weights - 1) in
  let u = Prng.float t.rng *. total in
  let n = Array.length t.cum_weights in
  let i = ref 0 in
  while !i < n - 1 && t.cum_weights.(!i) <= u do
    incr i
  done;
  !i

let issue t =
  let cls_idx = pick_class t in
  let cl = t.classes.(cls_idx) in
  let key = Keyspace.sample t.config.keyspace t.rng in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let slot_idx = seq mod t.config.pool in
  let s = t.slots.(slot_idx) in
  let payload =
    Sw_net.Msg.Wl_get
      { cls = cls_idx; key; seq; resp_bytes = cl.resp_bytes; cached = cl.cached }
  in
  t.issued <- t.issued + 1;
  Hashtbl.replace t.inflight seq (Host.now t.host, cls_idx, slot_idx);
  if Registry.enabled t.m.registry then begin
    Registry.Counter.incr t.m.c_issued;
    Registry.Gauge.observe_int t.m.g_inflight (Hashtbl.length t.inflight)
  end;
  s.inflight <- s.inflight + 1;
  s.used <- s.used + 1;
  if s.conn = None then open_slot t s;
  (match s.conn with
  | Some c when s.established -> Tcp_host.send c ~payload ~bytes:t.config.request_bytes
  | _ -> Queue.add (payload, t.config.request_bytes) s.backlog);
  if t.config.max_per_conn > 0 && s.used >= t.config.max_per_conn then
    s.retiring <- true

let rec schedule t =
  match Arrival.next t.gen with
  | None -> ()
  | Some at ->
      let gap = Time.sub at (Host.now t.host) in
      let gap = if Time.is_negative gap then Time.zero else gap in
      Host.after t.host gap (fun () ->
          issue t;
          schedule t)

let launch ?(prefix = "workload") ~host ~dst ~registry ~rng config =
  validate config;
  let classes = Array.of_list config.classes in
  let cum_weights =
    let acc = ref 0. in
    Array.map
      (fun c ->
        acc := !acc +. c.weight;
        !acc)
      classes
  in
  let t =
    {
      host;
      dst;
      tcp = Tcp_host.attach host ();
      config;
      classes;
      cum_weights;
      rng;
      gen = Arrival.generator config.arrival ~rng ~until:config.until;
      slots =
        Array.init config.pool (fun _ ->
            {
              conn = None;
              established = false;
              used = 0;
              inflight = 0;
              retiring = false;
              backlog = Queue.create ();
            });
      inflight = Hashtbl.create 256;
      m = meters registry ~prefix classes;
      next_seq = 0;
      issued = 0;
      completed = 0;
      hits = 0;
      misses = 0;
    }
  in
  schedule t;
  t

let issued t = t.issued
let completed t = t.completed
let hits t = t.hits
let misses t = t.misses
