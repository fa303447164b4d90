module Json = Sw_obs.Json
module Time = Sw_sim.Time
module Scenario = Sw_attack.Scenario

type attack_variant = {
  key : string;
  baseline : bool;
  victim : bool;
  colluder : bool;
}

type attack = {
  seed : int64;
  duration : Time.t;
  replicas : int;
  ping_rate_per_s : float;
  variants : attack_variant list;
}

type attack_probe = { ping_rate_per_s : float }

type partition = Contiguous | Affinity

type topology = {
  hosts : int;
  shards : int;
  east_west_rate_per_s : float;
  east_west_stride : int;
  partition : partition;
  replica_link_us : float option;
  quantum_us : float option;
}

type workload = {
  seed : int64;
  duration : Time.t;
  replicas : int;
  stopwatch : bool;
  arrival : Arrival.t;
  classes : Flowgen.cls list;
  keys : int;
  theta : float;
  cache : Cache.config;
  pool : int;
  max_per_conn : int;
  request_bytes : int;
  compute_branches : int;
  header_bytes : int;
  faults : Sw_fault.Schedule.t;
  attack : attack_probe option;
  topology : topology option;
  load_multipliers : float list;
  leak_audit : bool;
}

type kind = Attack of attack | Workload of workload
type t = { name : string; kind : kind }

(* --- Decoding helpers ---------------------------------------------------- *)

exception Bad of string

let bad path msg = raise (Bad (Printf.sprintf "%s: %s" path msg))

let as_obj path = function
  | Json.Obj fields -> fields
  | _ -> bad path "expected an object"

let as_num path v =
  match Json.to_number v with Some f -> f | None -> bad path "expected a number"

let as_bool path = function
  | Json.Bool b -> b
  | _ -> bad path "expected true or false"

let as_str path = function
  | Json.String s -> s
  | _ -> bad path "expected a string"

let as_arr path = function
  | Json.List items -> items
  | _ -> bad path "expected an array"

let as_int path = function
  | Json.Int i -> i
  | Json.Float f when Float.is_integer f -> int_of_float f
  | _ -> bad path "expected an integer"

(* Seeds go through [Json]'s int64 codec: an integer, or a string accepted
   by [Int64.of_string] — so full-width hex seeds like "0xDEADBEEFCAFEF00D"
   stay representable, and print back exactly. *)
let as_seed path v =
  match (Json.to_int64 v, v) with
  | Some s, _ -> s
  | None, Json.Float _ -> bad path "seed must be an integer (or a string)"
  | None, Json.String _ -> bad path "unparsable seed string"
  | None, _ -> bad path "expected a seed (number or string)"

let field fields name = List.assoc_opt name fields

let req fields path name decode =
  match field fields name with
  | Some v -> decode (path ^ "." ^ name) v
  | None -> bad path (Printf.sprintf "missing required field %S" name)

let opt fields path name ~default decode =
  match field fields name with
  | Some v -> decode (path ^ "." ^ name) v
  | None -> default

let time_of_s f = Time.of_float_s f
let time_of_ms f = Time.of_float_ms f
let time_of_us f = Time.of_float_s (f /. 1e6)

(* --- Arrival ------------------------------------------------------------- *)

let arrival_of_json path v =
  let fields = as_obj path v in
  let num name ~default = opt fields path name ~default as_num in
  let tspan name ~default =
    opt fields path name ~default (fun p v -> time_of_s (as_num p v))
  in
  match req fields path "process" as_str with
  | "constant" ->
      Arrival.Constant { rate_per_s = req fields path "rate_per_s" as_num }
  | "poisson" ->
      Arrival.Poisson { rate_per_s = req fields path "rate_per_s" as_num }
  | "diurnal" ->
      Arrival.Diurnal
        {
          base_per_s = req fields path "base_per_s" as_num;
          amplitude = num "amplitude" ~default:0.5;
          period = tspan "period_s" ~default:(Time.s 10);
        }
  | "flash" ->
      Arrival.Flash
        {
          base_per_s = req fields path "base_per_s" as_num;
          peak_per_s = req fields path "peak_per_s" as_num;
          at = req fields path "at_s" (fun p v -> time_of_s (as_num p v));
          ramp = tspan "ramp_s" ~default:Time.zero;
          hold = tspan "hold_s" ~default:Time.zero;
        }
  | "replay" ->
      let points =
        List.mapi
          (fun i point ->
            let p = Printf.sprintf "%s.points[%d]" path i in
            match point with
            | Json.List [ at; rate ] ->
                (time_of_s (as_num p at), as_num p rate)
            | _ -> bad p "expected a [seconds, rate_per_s] pair")
          (req fields path "points" as_arr)
      in
      Arrival.Replay { points }
  | p -> bad (path ^ ".process") (Printf.sprintf "unknown process %S" p)

let arrival_to_json = function
  | Arrival.Constant { rate_per_s } ->
      Json.Obj
        [ ("process", String "constant"); ("rate_per_s", Float rate_per_s) ]
  | Arrival.Poisson { rate_per_s } ->
      Json.Obj
        [ ("process", String "poisson"); ("rate_per_s", Float rate_per_s) ]
  | Arrival.Diurnal { base_per_s; amplitude; period } ->
      Json.Obj
        [
          ("process", String "diurnal");
          ("base_per_s", Float base_per_s);
          ("amplitude", Float amplitude);
          ("period_s", Float (Time.to_float_s period));
        ]
  | Arrival.Flash { base_per_s; peak_per_s; at; ramp; hold } ->
      Json.Obj
        [
          ("process", String "flash");
          ("base_per_s", Float base_per_s);
          ("peak_per_s", Float peak_per_s);
          ("at_s", Float (Time.to_float_s at));
          ("ramp_s", Float (Time.to_float_s ramp));
          ("hold_s", Float (Time.to_float_s hold));
        ]
  | Arrival.Replay { points } ->
      Json.Obj
        [
          ("process", String "replay");
          ( "points",
            List
              (List.map
                 (fun (at, r) ->
                   Json.List [ Float (Time.to_float_s at); Float r ])
                 points) );
        ]

(* --- Faults -------------------------------------------------------------- *)

let target_of_json path = function
  | Json.Null -> None
  | Json.String "ingress" -> Some Sw_net.Address.Ingress
  | Json.String "egress" -> Some Sw_net.Address.Egress
  | _ -> bad path {|expected "ingress", "egress" or null|}

let target_to_json = function
  | None -> Json.Null
  | Some Sw_net.Address.Ingress -> Json.String "ingress"
  | Some Sw_net.Address.Egress -> Json.String "egress"
  | Some _ -> Json.Null

let fault_of_json path fields =
  let num name = req fields path name as_num in
  let int name = req fields path name as_int in
  let target = opt fields path "target" ~default:None target_of_json in
  match req fields path "kind" as_str with
  | "link-loss" -> Sw_fault.Fault.Link_loss { target; p = num "p" }
  | "link-latency" ->
      Sw_fault.Fault.Link_latency { target; extra = time_of_us (num "extra_us") }
  | "machine-stall" -> Sw_fault.Fault.Machine_stall { machine = int "machine" }
  | "machine-slowdown" ->
      Sw_fault.Fault.Machine_slowdown
        { machine = int "machine"; factor = num "factor" }
  | "dom0-pause" -> Sw_fault.Fault.Dom0_pause { machine = int "machine" }
  | "mcast-partition" ->
      Sw_fault.Fault.Mcast_partition { vm = int "vm"; replica = int "replica" }
  | "replica-crash" ->
      let restart_after =
        opt fields path "restart_after_ms" ~default:None (fun p v ->
            Some (time_of_ms (as_num p v)))
      in
      Sw_fault.Fault.Replica_crash
        { vm = int "vm"; replica = int "replica"; restart_after }
  | k -> bad (path ^ ".kind") (Printf.sprintf "unknown fault kind %S" k)

let fault_to_json = function
  | Sw_fault.Fault.Link_loss { target; p } ->
      [ ("kind", Json.String "link-loss"); ("target", target_to_json target);
        ("p", Json.Float p) ]
  | Sw_fault.Fault.Link_latency { target; extra } ->
      [ ("kind", Json.String "link-latency"); ("target", target_to_json target);
        ("extra_us", Json.Float (Time.to_float_us extra)) ]
  | Sw_fault.Fault.Machine_stall { machine } ->
      [ ("kind", Json.String "machine-stall");
        ("machine", Json.Int machine) ]
  | Sw_fault.Fault.Machine_slowdown { machine; factor } ->
      [ ("kind", Json.String "machine-slowdown");
        ("machine", Json.Int machine);
        ("factor", Json.Float factor) ]
  | Sw_fault.Fault.Dom0_pause { machine } ->
      [ ("kind", Json.String "dom0-pause");
        ("machine", Json.Int machine) ]
  | Sw_fault.Fault.Mcast_partition { vm; replica } ->
      [ ("kind", Json.String "mcast-partition");
        ("vm", Json.Int vm);
        ("replica", Json.Int replica) ]
  | Sw_fault.Fault.Replica_crash { vm; replica; restart_after } ->
      [ ("kind", Json.String "replica-crash");
        ("vm", Json.Int vm);
        ("replica", Json.Int replica) ]
      @
      (match restart_after with
      | None -> []
      | Some t -> [ ("restart_after_ms", Json.Float (Time.to_float_ms t)) ])

let schedule_of_json path v =
  List.mapi
    (fun i w ->
      let p = Printf.sprintf "%s[%d]" path i in
      let fields = as_obj p w in
      {
        Sw_fault.Schedule.at =
          time_of_ms (req fields p "at_ms" as_num);
        span = time_of_ms (opt fields p "span_ms" ~default:0. as_num);
        fault = fault_of_json p fields;
      })
    (as_arr path v)

let schedule_to_json schedule =
  Json.List
    (List.map
       (fun (w : Sw_fault.Schedule.spec) ->
         Json.Obj
           ([
              ("at_ms", Json.Float (Time.to_float_ms w.Sw_fault.Schedule.at));
              ("span_ms", Json.Float (Time.to_float_ms w.span));
            ]
           @ fault_to_json w.fault))
       schedule)

(* --- Workload ------------------------------------------------------------ *)

let class_of_json path v =
  let fields = as_obj path v in
  {
    Flowgen.name = req fields path "name" as_str;
    weight = opt fields path "weight" ~default:1. as_num;
    resp_bytes = req fields path "resp_bytes" as_int;
    cached = opt fields path "cached" ~default:true as_bool;
  }

let class_to_json (c : Flowgen.cls) =
  Json.Obj
    [
      ("name", String c.Flowgen.name);
      ("weight", Float c.weight);
      ("resp_bytes", Int c.resp_bytes);
      ("cached", Bool c.cached);
    ]

let cache_of_json path v =
  let fields = as_obj path v in
  let tiers =
    List.mapi
      (fun i t ->
        let p = Printf.sprintf "%s.tiers[%d]" path i in
        let tf = as_obj p t in
        {
          Cache.capacity = req tf p "capacity" as_int;
          hit_cost = time_of_us (req tf p "hit_us" as_num);
        })
      (req fields path "tiers" as_arr)
  in
  {
    Cache.tiers;
    origin_cost = time_of_us (req fields path "origin_us" as_num);
  }

let cache_to_json (c : Cache.config) =
  Json.Obj
    [
      ( "tiers",
        List
          (List.map
             (fun (t : Cache.tier) ->
               Json.Obj
                 [
                   ("capacity", Int t.Cache.capacity);
                   ("hit_us", Float (Time.to_float_us t.hit_cost));
                 ])
             c.Cache.tiers) );
      ("origin_us", Float (Time.to_float_us c.origin_cost));
    ]

let default_classes =
  [ { Flowgen.name = "kv"; weight = 1.; resp_bytes = 2048; cached = true } ]

let workload_of_json path fields =
  let service =
    match field fields "service" with
    | Some v -> as_obj (path ^ ".service") v
    | None -> []
  in
  let spath = path ^ ".service" in
  let conns =
    match field fields "connections" with
    | Some v -> as_obj (path ^ ".connections") v
    | None -> []
  in
  let cpath = path ^ ".connections" in
  {
    seed = opt fields path "seed" ~default:0xA77ACCL as_seed;
    duration =
      time_of_s (opt fields path "duration_s" ~default:10. as_num);
    replicas = opt fields path "replicas" ~default:3 as_int;
    stopwatch = opt fields path "stopwatch" ~default:true as_bool;
    arrival = req fields path "arrival" arrival_of_json;
    classes =
      (match field service "classes" with
      | None -> default_classes
      | Some v ->
          List.mapi
            (fun i c -> class_of_json (Printf.sprintf "%s.classes[%d]" spath i) c)
            (as_arr (spath ^ ".classes") v));
    keys = opt service spath "keys" ~default:256 as_int;
    theta = opt service spath "zipf_theta" ~default:1.1 as_num;
    cache =
      opt fields path "cache" ~default:Kv.default_config.Kv.cache cache_of_json;
    pool = opt conns cpath "pool" ~default:8 as_int;
    max_per_conn = opt conns cpath "max_per_conn" ~default:64 as_int;
    request_bytes = opt service spath "request_bytes" ~default:120 as_int;
    compute_branches = opt service spath "compute_branches" ~default:20_000 as_int;
    header_bytes = opt service spath "header_bytes" ~default:64 as_int;
    faults = opt fields path "faults" ~default:[] schedule_of_json;
    attack =
      opt fields path "attack" ~default:None (fun p v ->
          let af = as_obj p v in
          Some { ping_rate_per_s = opt af p "ping_rate_per_s" ~default:40. as_num });
    topology =
      opt fields path "topology" ~default:None (fun p v ->
          let tf = as_obj p v in
          Some
            {
              hosts = req tf p "hosts" as_int;
              shards = opt tf p "shards" ~default:1 as_int;
              east_west_rate_per_s =
                opt tf p "east_west_rate_per_s" ~default:0. as_num;
              east_west_stride = opt tf p "east_west_stride" ~default:1 as_int;
              partition =
                opt tf p "partition" ~default:Contiguous (fun pp v ->
                    match as_str pp v with
                    | "contiguous" -> Contiguous
                    | "affinity" -> Affinity
                    | s ->
                        bad pp
                          (Printf.sprintf
                             {|unknown partition %S (want "contiguous" or "affinity")|}
                             s));
              replica_link_us =
                opt tf p "replica_link_us" ~default:None (fun pp v ->
                    Some (as_num pp v));
              quantum_us =
                opt tf p "quantum_us" ~default:None (fun pp v ->
                    Some (as_num pp v));
            });
    load_multipliers =
      opt fields path "load_multipliers" ~default:[ 1. ] (fun p v ->
          List.map (as_num p) (as_arr p v));
    leak_audit = opt fields path "leak_audit" ~default:false as_bool;
  }

let workload_to_json (w : workload) =
  [
    ("seed", Json.of_int64 w.seed);
    ("duration_s", Json.Float (Time.to_float_s w.duration));
    ("replicas", Json.Int w.replicas);
    ("stopwatch", Json.Bool w.stopwatch);
    ("arrival", arrival_to_json w.arrival);
    ( "service",
      Json.Obj
        [
          ("classes", List (List.map class_to_json w.classes));
          ("keys", Int w.keys);
          ("zipf_theta", Float w.theta);
          ("request_bytes", Int w.request_bytes);
          ("compute_branches", Int w.compute_branches);
          ("header_bytes", Int w.header_bytes);
        ] );
    ("cache", cache_to_json w.cache);
    ( "connections",
      Json.Obj
        [
          ("pool", Int w.pool);
          ("max_per_conn", Int w.max_per_conn);
        ] );
    ("load_multipliers", Json.List (List.map (fun m -> Json.Float m) w.load_multipliers));
    ("faults", schedule_to_json w.faults);
  ]
  @ (match w.attack with
    | None -> []
    | Some a ->
        [
          ( "attack",
            Json.Obj [ ("ping_rate_per_s", Float a.ping_rate_per_s) ] );
        ])
  @ (match w.topology with
    | None -> []
    | Some t ->
        [
          ( "topology",
            Json.Obj
              ([
                 ("hosts", Json.Int t.hosts);
                 ("shards", Json.Int t.shards);
                 ("east_west_rate_per_s", Json.Float t.east_west_rate_per_s);
                 ( "east_west_stride",
                   Json.Int t.east_west_stride );
                 ( "partition",
                   Json.String
                     (match t.partition with
                     | Contiguous -> "contiguous"
                     | Affinity -> "affinity") );
               ]
              @
              (match t.replica_link_us with
              | None -> []
              | Some us -> [ ("replica_link_us", Json.Float us) ])
              @
              match t.quantum_us with
              | None -> []
              | Some us -> [ ("quantum_us", Json.Float us) ]) );
        ])
  @ [ ("leak_audit", Json.Bool w.leak_audit) ]

(* --- Attack -------------------------------------------------------------- *)

let attack_of_json path fields =
  let d = Scenario.default in
  {
    seed = opt fields path "seed" ~default:d.Scenario.seed as_seed;
    duration =
      time_of_s (opt fields path "duration_s" ~default:60. as_num);
    replicas =
      opt fields path "replicas"
        ~default:d.Scenario.config.Sw_vmm.Config.replicas as_int;
    ping_rate_per_s =
      opt fields path "ping_rate_per_s" ~default:d.Scenario.ping_rate_per_s
        as_num;
    variants =
      List.mapi
        (fun i v ->
          let p = Printf.sprintf "%s.variants[%d]" path i in
          let vf = as_obj p v in
          {
            key = req vf p "key" as_str;
            baseline = opt vf p "baseline" ~default:false as_bool;
            victim = opt vf p "victim" ~default:false as_bool;
            colluder = opt vf p "colluder" ~default:false as_bool;
          })
        (req fields path "variants" as_arr);
  }

let attack_to_json (a : attack) =
  [
    ("seed", Json.of_int64 a.seed);
    ("duration_s", Json.Float (Time.to_float_s a.duration));
    ("replicas", Json.Int a.replicas);
    ("ping_rate_per_s", Json.Float a.ping_rate_per_s);
    ( "variants",
      Json.List
        (List.map
           (fun v ->
             Json.Obj
               [
                 ("key", String v.key);
                 ("baseline", Bool v.baseline);
                 ("victim", Bool v.victim);
                 ("colluder", Bool v.colluder);
               ])
           a.variants) );
  ]

(* The shard partition rule, checked before any cloud is built: cells
   (one replica group + its client hosts) are the partition atoms, and
   Cloud.create's contiguous machine blocks align with cell boundaries
   exactly when cells divide evenly into shards. *)
let check_topology (w : workload) =
  match w.topology with
  | None -> Ok ()
  | Some t ->
      if not w.stopwatch then
        Error "topology: requires stopwatch = true (baseline is single-machine)"
      else if w.attack <> None then
        Error "topology: attack probes are not supported on a datacenter run"
      else if t.hosts < w.replicas then
        Error
          (Printf.sprintf "topology.hosts: %d hosts cannot place %d replicas"
             t.hosts w.replicas)
      else if t.hosts mod w.replicas <> 0 then
        Error
          (Printf.sprintf
             "topology.hosts: %d is not a multiple of replicas (%d)" t.hosts
             w.replicas)
      else if t.shards < 1 then Error "topology.shards: must be >= 1"
      else if t.hosts / w.replicas mod t.shards <> 0 then
        Error
          (Printf.sprintf
             "topology.shards: %d cells (hosts/replicas) do not divide into \
              %d shards; replica groups would cross shard blocks"
             (t.hosts / w.replicas) t.shards)
      else if t.east_west_rate_per_s < 0. then
        Error "topology.east_west_rate_per_s: must be >= 0"
      else if t.east_west_stride < 1 then
        Error "topology.east_west_stride: must be >= 1"
      else if
        match t.replica_link_us with Some us -> us <= 0. | None -> false
      then Error "topology.replica_link_us: must be > 0"
      else if match t.quantum_us with Some us -> us <= 0. | None -> false
      then Error "topology.quantum_us: must be > 0"
      else if t.shards > 1 && w.faults <> [] then
        Error "topology: fault schedules are not supported on a sharded run"
      else if t.shards > 1 && w.leak_audit then
        Error
          "topology: leak audits (which trace) are not supported on a \
           sharded run"
      else Ok ()

(* --- Validation ---------------------------------------------------------- *)

(* Value checks only: no keyspace, cloud or digest is built. A field path
   is a thunk, and a message is formatted only on failure, so a valid
   scenario validates without formatting anything. *)

let sub path name () = path () ^ "." ^ name
let nth path i () = Printf.sprintf "%s[%d]" (path ()) i
let fail path what got = bad (path ()) (Printf.sprintf "%s (got %s)" what got)

let positive path x =
  if not (x > 0.) then fail path "must be > 0" (Printf.sprintf "%g" x)

let non_negative path x =
  if not (x >= 0.) then fail path "must be >= 0" (Printf.sprintf "%g" x)

let within path ~lo ~hi x =
  if not (x >= lo && x <= hi) then
    fail path
      (Printf.sprintf "must lie in [%g, %g]" lo hi)
      (Printf.sprintf "%g" x)

let at_least n path x =
  if x < n then fail path (Printf.sprintf "must be >= %d" n) (string_of_int x)

let positive_span path t = positive path (Time.to_float_s t)
let non_negative_span path t = non_negative path (Time.to_float_s t)

let replicas path m =
  if m < 1 || m mod 2 = 0 then
    fail path "must be odd and positive" (string_of_int m)

let not_empty path = function [] -> bad (path ()) "must not be empty" | _ -> ()

let validate_arrival path = function
  | Arrival.Constant { rate_per_s } | Arrival.Poisson { rate_per_s } ->
      non_negative (sub path "rate_per_s") rate_per_s
  | Arrival.Diurnal { base_per_s; amplitude; period } ->
      non_negative (sub path "base_per_s") base_per_s;
      within (sub path "amplitude") ~lo:0. ~hi:1. amplitude;
      positive_span (sub path "period_s") period
  | Arrival.Flash { base_per_s; peak_per_s; at; ramp; hold } ->
      non_negative (sub path "base_per_s") base_per_s;
      if peak_per_s < base_per_s then
        fail (sub path "peak_per_s") "must be >= base_per_s"
          (Printf.sprintf "%g" peak_per_s);
      non_negative_span (sub path "at_s") at;
      non_negative_span (sub path "ramp_s") ramp;
      non_negative_span (sub path "hold_s") hold
  | Arrival.Replay { points } ->
      ignore
        (List.fold_left
           (fun (i, prev) (at, rate) ->
             let p = nth (sub path "points") i in
             non_negative_span p at;
             non_negative p rate;
             (match prev with
             | Some t when Time.compare at t <= 0 ->
                 bad (p ()) "instants must be strictly increasing"
             | _ -> ());
             (i + 1, Some at))
           (0, None) points)

let validate_fault path (w : Sw_fault.Schedule.spec) =
  non_negative_span (sub path "at_ms") w.Sw_fault.Schedule.at;
  non_negative_span (sub path "span_ms") w.span;
  let index name = at_least 0 (sub path name) in
  match w.fault with
  | Sw_fault.Fault.Link_loss { p; _ } -> within (sub path "p") ~lo:0. ~hi:1. p
  | Sw_fault.Fault.Link_latency { extra; _ } ->
      non_negative_span (sub path "extra_us") extra
  | Sw_fault.Fault.Machine_stall { machine }
  | Sw_fault.Fault.Dom0_pause { machine } ->
      index "machine" machine
  | Sw_fault.Fault.Machine_slowdown { machine; factor } ->
      index "machine" machine;
      if factor < 1. then
        fail (sub path "factor") "must be >= 1" (Printf.sprintf "%g" factor)
  | Sw_fault.Fault.Mcast_partition { vm; replica } ->
      index "vm" vm;
      index "replica" replica
  | Sw_fault.Fault.Replica_crash { vm; replica; restart_after } ->
      index "vm" vm;
      index "replica" replica;
      Option.iter (positive_span (sub path "restart_after_ms")) restart_after

let validate_workload path (w : workload) =
  positive_span (sub path "duration_s") w.duration;
  replicas (sub path "replicas") w.replicas;
  validate_arrival (sub path "arrival") w.arrival;
  let service = sub path "service" in
  not_empty (sub service "classes") w.classes;
  List.iteri
    (fun i (c : Flowgen.cls) ->
      let p = nth (sub service "classes") i in
      non_negative (sub p "weight") c.Flowgen.weight;
      at_least 1 (sub p "resp_bytes") c.resp_bytes)
    w.classes;
  if List.for_all (fun (c : Flowgen.cls) -> c.Flowgen.weight = 0.) w.classes
  then bad (sub service "classes" ()) "all weights are zero";
  at_least 1 (sub service "keys") w.keys;
  non_negative (sub service "zipf_theta") w.theta;
  at_least 1 (sub service "request_bytes") w.request_bytes;
  at_least 0 (sub service "compute_branches") w.compute_branches;
  at_least 0 (sub service "header_bytes") w.header_bytes;
  let cache = sub path "cache" in
  not_empty (sub cache "tiers") w.cache.Cache.tiers;
  List.iteri
    (fun i (t : Cache.tier) ->
      let p = nth (sub cache "tiers") i in
      at_least 1 (sub p "capacity") t.Cache.capacity;
      non_negative_span (sub p "hit_us") t.hit_cost)
    w.cache.Cache.tiers;
  non_negative_span (sub cache "origin_us") w.cache.Cache.origin_cost;
  at_least 1 (sub path "connections.pool") w.pool;
  at_least 0 (sub path "connections.max_per_conn") w.max_per_conn;
  List.iteri (fun i f -> validate_fault (nth (sub path "faults") i) f) w.faults;
  Option.iter
    (fun (a : attack_probe) ->
      positive (sub path "attack.ping_rate_per_s") a.ping_rate_per_s)
    w.attack;
  List.iteri
    (fun i m -> non_negative (nth (sub path "load_multipliers") i) m)
    w.load_multipliers;
  match check_topology w with
  | Ok () -> ()
  | Error e -> raise (Bad (path () ^ "." ^ e))

let validate_attack path (a : attack) =
  positive_span (sub path "duration_s") a.duration;
  replicas (sub path "replicas") a.replicas;
  positive (sub path "ping_rate_per_s") a.ping_rate_per_s;
  not_empty (sub path "variants") a.variants;
  ignore
    (List.fold_left
       (fun (i, seen) v ->
         if List.mem v.key seen then
           bad
             (sub (nth (sub path "variants") i) "key" ())
             (Printf.sprintf "duplicate key %S" v.key);
         (i + 1, v.key :: seen))
       (0, []) a.variants)

let root () = "scenario"

let check_values t =
  match t.kind with
  | Workload w -> validate_workload root w
  | Attack a -> validate_attack root a

let validate t =
  match check_values t with () -> Ok t | exception Bad msg -> Error msg

(* --- Top level ----------------------------------------------------------- *)

let to_json t =
  let kind, rest =
    match t.kind with
    | Workload w -> ("workload", workload_to_json w)
    | Attack a -> ("attack", attack_to_json a)
  in
  Json.Obj
    ((("name", Json.String t.name) :: ("kind", Json.String kind) :: []) @ rest)

(* [to_json] re-emits every field the decoders read, so a key of the input
   that is absent at the same path of [to_json decoded] is one no decoder
   read: a typo or a field that does not exist. Paths are thunks, as in
   validation. *)
let rec check_known path input known =
  match (input, known) with
  | Json.Obj fields, Json.Obj known ->
      List.iter
        (fun (k, v) ->
          match List.assoc_opt k known with
          | Some kv -> check_known (sub path k) v kv
          | None -> bad (sub path k ()) "unknown field")
        fields
  | Json.List items, Json.List known
    when List.compare_lengths items known = 0 ->
      List.iteri
        (fun i (v, kv) -> check_known (nth path i) v kv)
        (List.combine items known)
  | _ -> ()

let of_json json =
  match
    let fields = as_obj "scenario" json in
    let name = req fields "scenario" "name" as_str in
    let kind =
      match req fields "scenario" "kind" as_str with
      | "workload" -> Workload (workload_of_json "scenario" fields)
      | "attack" -> Attack (attack_of_json "scenario" fields)
      | k -> bad "scenario.kind" (Printf.sprintf "unknown kind %S" k)
    in
    let t = { name; kind } in
    check_values t;
    (* A top-level "comment" string is the one free-form key. *)
    ignore (opt fields "scenario" "comment" ~default:"" as_str);
    check_known root (Json.Obj (List.remove_assoc "comment" fields)) (to_json t);
    t
  with
  | t -> Ok t
  | exception Bad msg -> Error msg

let parse s = Result.bind (Json.parse s) of_json
let print t = Json.to_string (to_json t)

let load_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | contents -> (
      match parse contents with
      | Ok t -> Ok t
      | Error e -> Error (Printf.sprintf "%s: %s" file e))
  | exception Sys_error e -> Error e

(* --- Compilation --------------------------------------------------------- *)

let attack_specs (a : attack) =
  let base =
    Scenario.with_replicas
      {
        Scenario.default with
        Scenario.duration = a.duration;
        seed = a.seed;
        ping_rate_per_s = a.ping_rate_per_s;
      }
      a.replicas
  in
  List.map
    (fun v ->
      ( v.key,
        {
          base with
          Scenario.baseline = v.baseline;
          victim = v.victim;
          colluder = v.colluder;
        } ))
    a.variants

let override ?seconds ?shards ?partition t =
  let duration d =
    match seconds with None -> d | Some s -> Time.of_float_s s
  in
  let kind =
    match t.kind with
    | Attack a -> Attack { a with duration = duration a.duration }
    | Workload w ->
        let topology =
          Option.map
            (fun (topo : topology) ->
              {
                topo with
                shards = Option.value shards ~default:topo.shards;
                partition = Option.value partition ~default:topo.partition;
              })
            w.topology
        in
        Workload { w with duration = duration w.duration; topology }
  in
  validate { t with kind }

let shards (w : workload) =
  match w.topology with Some t -> t.shards | None -> 1

let scaled w m =
  let arrival =
    match w.arrival with
    | Arrival.Constant { rate_per_s } ->
        Arrival.Constant { rate_per_s = rate_per_s *. m }
    | Arrival.Poisson { rate_per_s } ->
        Arrival.Poisson { rate_per_s = rate_per_s *. m }
    | Arrival.Diurnal { base_per_s; amplitude; period } ->
        Arrival.Diurnal { base_per_s = base_per_s *. m; amplitude; period }
    | Arrival.Flash { base_per_s; peak_per_s; at; ramp; hold } ->
        Arrival.Flash
          {
            base_per_s = base_per_s *. m;
            peak_per_s = peak_per_s *. m;
            at;
            ramp;
            hold;
          }
    | Arrival.Replay { points } ->
        Arrival.Replay
          { points = List.map (fun (t, r) -> (t, r *. m)) points }
  in
  { w with arrival }

let workload_variants ~name w =
  match w.load_multipliers with
  | [] | [ 1. ] -> [ (name, w) ]
  | multipliers ->
      List.mapi
        (fun i m ->
          let seed =
            Int64.add w.seed (Int64.mul (Int64.of_int i) 0x9E3779B97F4A7C15L)
          in
          ( Printf.sprintf "%s/x%g" name m,
            { (scaled w m) with seed; load_multipliers = [ m ] } ))
        multipliers
