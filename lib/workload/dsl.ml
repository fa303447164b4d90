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

(* --- The codec ----------------------------------------------------------- *)

(* Every [.scn] field is declared once below, with its JSON name, getter,
   default, value codec and value check; the decoder, the printer, the
   value checks and the unknown-key check all follow from it. A field path
   is a thunk, and a message is formatted only on failure, so a valid
   scenario decodes and checks without formatting anything. *)

exception Bad of string

let bad path msg = raise (Bad (Printf.sprintf "%s: %s" (path ()) msg))
let sub path name () = path () ^ "." ^ name
let nth path i () = Printf.sprintf "%s[%d]" (path ()) i
let root () = "scenario"

type 'a codec = {
  decode : (unit -> string) -> Json.t -> 'a;
  encode : 'a -> Json.t;
  check : (unit -> string) -> 'a -> unit;
}

let value decode encode = { decode; encode; check = (fun _ _ -> ()) }

(* [c |> where chk] adds the value check [chk] to [c]. *)
let where chk c = { c with check = (fun p v -> c.check p v; chk p v) }

let prim expected get =
  value (fun p v -> match get v with Some x -> x | None -> bad p expected)

let number = prim "expected a number" Json.to_number (fun f -> Json.Float f)

let int =
  prim "expected an integer"
    (function
      | Json.Int i -> Some i
      | Json.Float f when Float.is_integer f -> Some (int_of_float f)
      | _ -> None)
    (fun i -> Json.Int i)

let bool =
  prim "expected true or false"
    (function Json.Bool b -> Some b | _ -> None)
    (fun b -> Json.Bool b)

let string =
  prim "expected a string"
    (function Json.String s -> Some s | _ -> None)
    (fun s -> Json.String s)

(* Seeds go through [Json]'s int64 codec: an integer, or a string accepted
   by [Int64.of_string] — so full-width hex seeds like "0xDEADBEEFCAFEF00D"
   stay representable, and print back exactly. *)
let seed =
  value
    (fun p v ->
      match (Json.to_int64 v, v) with
      | Some s, _ -> s
      | None, Json.Float _ -> bad p "seed must be an integer (or a string)"
      | None, Json.String _ -> bad p "unparsable seed string"
      | None, _ -> bad p "expected a seed (number or string)")
    Json.of_int64

let time of_float to_float =
  value
    (fun p v -> of_float (number.decode p v))
    (fun t -> number.encode (to_float t))

let seconds = time Time.of_float_s Time.to_float_s
let millis = time Time.of_float_ms Time.to_float_ms
let micros = time (fun f -> Time.of_float_s (f /. 1e6)) Time.to_float_us

(* A closed set of JSON literals; [error] words the rejection of any other. *)
let enum ~error alts =
  value
    (fun p v ->
      match List.find_opt (fun (j, _) -> j = v) alts with
      | Some (_, x) -> x
      | None -> bad p (error v))
    (fun x -> fst (List.find (fun (_, y) -> y = x) alts))

let list c =
  { decode =
      (fun p -> function
        | Json.List l -> List.mapi (fun i v -> c.decode (nth p i) v) l
        | _ -> bad p "expected an array");
    encode = (fun l -> Json.List (List.map c.encode l));
    check = (fun p l -> List.iteri (fun i v -> c.check (nth p i) v) l) }

(* An object under construction. Its members decode in declaration order,
   each feeding the constructor one argument ([read] turns ['f] into
   ['g]), and [write] prepends them in order to a reversed member list.
   [read] marks each input member it looks up; one left unmarked is a key
   no declaration knows. *)
type members = (string * (Json.t * bool ref)) list

type ('r, 'f, 'g) fields = {
  read : (unit -> string) -> members -> 'f -> 'g;
  write : 'r -> (string * Json.t) list -> (string * Json.t) list;
  verify : (unit -> string) -> 'r -> unit;
}

let fields =
  { read = (fun _ _ f -> f); write = (fun _ l -> l); verify = (fun _ _ -> ()) }

let record k = { fields with read = (fun _ _ () -> k) }

let find name (m : members) =
  Option.map (fun (v, used) -> used := true; v) (List.assoc_opt name m)

(* Reads object [v] with [read], then rejects any member it did not look up
   (a repeated key counts as read with its first occurrence). *)
let obj path read = function
  | Json.Obj m ->
      let m = List.map (fun (k, v) -> (k, (v, ref false))) m in
      let r = read path m in
      List.iter
        (fun (k, (_, used)) ->
          if not (!used || !(snd (List.assoc k m))) then
            bad (sub path k) "unknown field")
        m;
      r
  | _ -> bad path "expected an object"

let seal o =
  { decode = (fun p v -> obj p (fun p m -> o.read p m ()) v);
    encode = (fun r -> Json.Obj (List.rev (o.write r [])));
    check = o.verify }

let required name c p m =
  match find name m with
  | Some v -> c.decode (sub p name) v
  | None -> bad p (Printf.sprintf "missing required field %S" name)

let member name decode encode check get o =
  { read = (fun p m f -> let g = o.read p m f in g (decode p m));
    write =
      (fun r acc ->
        let acc = o.write r acc in
        match encode (get r) with Some v -> (name, v) :: acc | None -> acc);
    verify = (fun p r -> o.verify p r; check (sub p name) (get r)) }

(* A member that is required, or takes [default] when absent. *)
let mem name ?default c =
  member name
    (fun p m ->
      match default with
      | Some d when not (List.mem_assoc name m) -> d
      | _ -> required name c p m)
    (fun x -> Some (c.encode x))
    c.check

(* An optional member, left out of the printed form when [None]. *)
let opt name c =
  member name
    (fun p m -> Option.map (c.decode (sub p name)) (find name m))
    (Option.map c.encode)
    (fun p -> Option.iter (c.check p))

(* A nested JSON object whose members are fields of the enclosing record;
   an absent one takes every default. *)
let group name inner o =
  { read =
      (fun p m f ->
        let g = o.read p m f and q = sub p name in
        match find name m with
        | Some v -> obj q (fun q m -> inner.read q m g) v
        | None -> inner.read q [] g);
    write =
      (fun r acc ->
        (name, Json.Obj (List.rev (inner.write r []))) :: o.write r acc);
    verify = (fun p r -> o.verify p r; inner.verify (sub p name) r) }

(* A record-level check across the members declared so far. *)
let rule chk o = { o with verify = (fun p r -> o.verify p r; chk p r) }

(* A sum type in the enclosing object: the string member [tag] names the
   case ([label] of a value), whose own members follow it. A case's getters
   only ever see values of their own case, so they are partial on purpose
   (hence [@warning "-8"] on the declarations that use [cases]). *)
let cases tag ~what ~label alts get o =
  let alt v = List.assoc (label v) alts in
  { read =
      (fun p m f ->
        let g = o.read p m f in
        let t = required tag string p m in
        match List.assoc_opt t alts with
        | Some a -> g (a.read p m ())
        | None -> bad (sub p tag) (Printf.sprintf "unknown %s %S" what t));
    write =
      (fun r acc ->
        let v = get r in
        (alt v).write v ((tag, Json.String (label v)) :: o.write r acc));
    verify = (fun p r -> o.verify p r; (alt (get r)).verify p (get r)) }

(* [lift inj prj o] reads [o]'s record into a case of a wider type. *)
let lift inj prj o =
  { read = (fun p m () -> inj (o.read p m ()));
    write = (fun v acc -> o.write (prj v) acc);
    verify = (fun p v -> o.verify p (prj v)) }

(* --- Value checks -------------------------------------------------------- *)

(* [must ok what show] rejects a value failing [ok] with "[what] (got v)". *)
let must ok what show path x =
  if not (ok x) then bad path (Printf.sprintf "%s (got %s)" what (show x))

let real = Printf.sprintf "%g"
let positive = must (fun x -> x > 0.) "must be > 0" real
let non_negative = must (fun x -> x >= 0.) "must be >= 0" real
let unit_interval = must (fun x -> x >= 0. && x <= 1.) "must lie in [0, 1]" real

let positive_span path t = positive path (Time.to_float_s t)
let non_negative_span path t = non_negative path (Time.to_float_s t)

let replicas =
  must (fun m -> m >= 1 && m mod 2 <> 0) "must be odd and positive" string_of_int

let not_empty path = function [] -> bad path "must not be empty" | _ -> ()

let count n =
  let least = must (fun x -> x >= n) (Printf.sprintf "must be >= %d" n) in
  int |> where (least string_of_int)
let rate = number |> where non_negative
let span = seconds |> where non_negative_span
let duration = seconds |> where positive_span
let delay = micros |> where non_negative_span

(* --- Arrival ------------------------------------------------------------- *)

let increasing path points =
  let points = Array.of_list points in
  Array.iteri
    (fun i (at, rate) ->
      let p = nth path i in
      non_negative_span p at;
      non_negative p rate;
      if i > 0 && Time.compare at (fst points.(i - 1)) <= 0 then
        bad p "instants must be strictly increasing")
    points

let point =
  value
    (fun p -> function
      | Json.List [ at; rate ] -> (seconds.decode p at, number.decode p rate)
      | _ -> bad p "expected a [seconds, rate_per_s] pair")
    (fun (at, rate) -> Json.List [ seconds.encode at; number.encode rate ])

let[@warning "-8"] arrival =
  let open Arrival in
  let label = function
    | Constant _ -> "constant" | Poisson _ -> "poisson" | Diurnal _ -> "diurnal"
    | Flash _ -> "flash" | Replay _ -> "replay"
  in
  record Fun.id
  |> cases "process" ~what:"process" ~label
       [
         ( "constant",
           record (fun rate_per_s -> Constant { rate_per_s })
           |> mem "rate_per_s" rate (fun (Constant a) -> a.rate_per_s) );
         ( "poisson",
           record (fun rate_per_s -> Poisson { rate_per_s })
           |> mem "rate_per_s" rate (fun (Poisson a) -> a.rate_per_s) );
         ( "diurnal",
           record (fun base_per_s amplitude period ->
               Diurnal { base_per_s; amplitude; period })
           |> mem "base_per_s" rate (fun (Diurnal a) -> a.base_per_s)
           |> mem "amplitude" ~default:0.5 (number |> where unit_interval)
                (fun (Diurnal a) -> a.amplitude)
           |> mem "period_s" ~default:(Time.s 10) duration (fun (Diurnal a) ->
                  a.period) );
         ( "flash",
           record (fun base_per_s peak_per_s at ramp hold ->
               Flash { base_per_s; peak_per_s; at; ramp; hold })
           |> mem "base_per_s" rate (fun (Flash a) -> a.base_per_s)
           |> mem "peak_per_s" number (fun (Flash a) -> a.peak_per_s)
           |> rule (fun p (Flash a) ->
                  must (fun x -> not (x < a.base_per_s)) "must be >= base_per_s"
                    real (sub p "peak_per_s") a.peak_per_s)
           |> mem "at_s" span (fun (Flash a) -> a.at)
           |> mem "ramp_s" ~default:Time.zero span (fun (Flash a) -> a.ramp)
           |> mem "hold_s" ~default:Time.zero span (fun (Flash a) -> a.hold) );
         ( "replay",
           record (fun points -> Replay { points })
           |> mem "points" (list point |> where increasing) (fun (Replay a) ->
                  a.points) );
       ]
       Fun.id
  |> seal

(* --- Faults -------------------------------------------------------------- *)

let[@warning "-8"] fault =
  let open Sw_fault.Schedule in
  let open Sw_fault.Fault in
  let target get o =
    mem "target" ~default:None
      (enum
         ~error:(fun _ -> {|expected "ingress", "egress" or null|})
         [ (Json.Null, None); (Json.String "ingress", Some Ingress);
           (Json.String "egress", Some Egress) ])
      get o
  in
  let index name get o = mem name (count 0) get o in
  let factor = must (fun x -> not (x < 1.)) "must be >= 1" real in
  record (fun at span fault -> { at; span; fault })
  |> mem "at_ms" (millis |> where non_negative_span) (fun s -> s.at)
  |> mem "span_ms" ~default:Time.zero (millis |> where non_negative_span)
       (fun s -> s.span)
  |> cases "kind" ~what:"fault kind" ~label
       [
         ( "link-loss",
           record (fun target p -> Link_loss { target; p })
           |> target (fun (Link_loss f) -> f.target)
           |> mem "p" (number |> where unit_interval) (fun (Link_loss f) -> f.p)
         );
         ( "link-latency",
           record (fun target extra -> Link_latency { target; extra })
           |> target (fun (Link_latency f) -> f.target)
           |> mem "extra_us" delay (fun (Link_latency f) -> f.extra) );
         ( "machine-stall",
           record (fun machine -> Machine_stall { machine })
           |> index "machine" (fun (Machine_stall f) -> f.machine) );
         ( "machine-slowdown",
           record (fun machine factor -> Machine_slowdown { machine; factor })
           |> index "machine" (fun (Machine_slowdown f) -> f.machine)
           |> mem "factor" (number |> where factor) (fun (Machine_slowdown f) ->
                  f.factor) );
         ( "dom0-pause",
           record (fun machine -> Dom0_pause { machine })
           |> index "machine" (fun (Dom0_pause f) -> f.machine) );
         ( "mcast-partition",
           record (fun vm replica -> Mcast_partition { vm; replica })
           |> index "vm" (fun (Mcast_partition f) -> f.vm)
           |> index "replica" (fun (Mcast_partition f) -> f.replica) );
         ( "replica-crash",
           record (fun vm replica restart_after ->
               Replica_crash { vm; replica; restart_after })
           |> index "vm" (fun (Replica_crash f) -> f.vm)
           |> index "replica" (fun (Replica_crash f) -> f.replica)
           |> opt "restart_after_ms" (millis |> where positive_span)
                (fun (Replica_crash f) -> f.restart_after) );
       ]
       (fun s -> s.fault)
  |> seal

(* --- Workload ------------------------------------------------------------ *)

let cls =
  record (fun name weight resp_bytes cached ->
      { Flowgen.name; weight; resp_bytes; cached })
  |> mem "name" string (fun c -> c.Flowgen.name)
  |> mem "weight" ~default:1. rate (fun c -> c.Flowgen.weight)
  |> mem "resp_bytes" (count 1) (fun c -> c.Flowgen.resp_bytes)
  |> mem "cached" ~default:true bool (fun c -> c.Flowgen.cached)
  |> seal

let weighted path classes =
  if List.for_all (fun c -> c.Flowgen.weight = 0.) classes then
    bad path "all weights are zero"

let cache =
  let tier =
    record (fun capacity hit_cost -> { Cache.capacity; hit_cost })
    |> mem "capacity" (count 1) (fun t -> t.Cache.capacity)
    |> mem "hit_us" delay (fun t -> t.Cache.hit_cost)
    |> seal
  in
  record (fun tiers origin_cost -> { Cache.tiers; origin_cost })
  |> mem "tiers" (list tier |> where not_empty) (fun c -> c.Cache.tiers)
  |> mem "origin_us" delay (fun c -> c.Cache.origin_cost)
  |> seal

let probe =
  record (fun ping_rate_per_s -> { ping_rate_per_s })
  |> mem "ping_rate_per_s" ~default:40. (number |> where positive)
       (fun (a : attack_probe) -> a.ping_rate_per_s)
  |> seal

let partition =
  enum
    ~error:(function
      | Json.String s ->
          Printf.sprintf
            {|unknown partition %S (want "contiguous" or "affinity")|} s
      | _ -> "expected a string")
    [ (Json.String "contiguous", Contiguous);
      (Json.String "affinity", Affinity) ]

(* The topology block's own checks do not quote the rejected value. *)
let topology =
  let reject fails what path x = if fails x then bad path what in
  let at_least_one = int |> where (reject (fun n -> n < 1) "must be >= 1") in
  let at_least_zero = number |> where (reject (fun x -> x < 0.) "must be >= 0") in
  let latency = number |> where (reject (fun x -> x <= 0.) "must be > 0") in
  record
    (fun hosts shards east_west_rate_per_s east_west_stride partition
         replica_link_us quantum_us ->
      { hosts; shards; east_west_rate_per_s; east_west_stride; partition;
        replica_link_us; quantum_us })
  |> mem "hosts" int (fun t -> t.hosts)
  |> mem "shards" ~default:1 at_least_one (fun t -> t.shards)
  |> mem "east_west_rate_per_s" ~default:0. at_least_zero (fun t ->
         t.east_west_rate_per_s)
  |> mem "east_west_stride" ~default:1 at_least_one (fun t -> t.east_west_stride)
  |> mem "partition" ~default:Contiguous partition (fun t -> t.partition)
  |> opt "replica_link_us" latency (fun t -> t.replica_link_us)
  |> opt "quantum_us" latency (fun t -> t.quantum_us)
  |> seal

(* The shard partition rule, checked before any cloud is built (and after
   the topology block's own field checks): cells (one replica group + its
   client hosts) are the partition atoms, and Cloud.create's contiguous
   machine blocks align with cell boundaries exactly when cells divide
   evenly into shards. *)
let partition_rule path (w : workload) =
  match w.topology with
  | None -> ()
  | Some t ->
      let topo = sub path "topology" in
      let fail field fmt = Printf.ksprintf (bad (sub topo field)) fmt in
      if not w.stopwatch then
        bad topo "requires stopwatch = true (baseline is single-machine)"
      else if w.attack <> None then
        bad topo "attack probes are not supported on a datacenter run"
      else if t.hosts < w.replicas then
        fail "hosts" "%d hosts cannot place %d replicas" t.hosts w.replicas
      else if t.hosts mod w.replicas <> 0 then
        fail "hosts" "%d is not a multiple of replicas (%d)" t.hosts w.replicas
      else if t.hosts / w.replicas mod t.shards <> 0 then
        fail "shards"
          "%d cells (hosts/replicas) do not divide into %d shards; replica \
           groups would cross shard blocks"
          (t.hosts / w.replicas) t.shards
      else if t.shards > 1 && w.faults <> [] then
        bad topo "fault schedules are not supported on a sharded run"
      else if t.shards > 1 && w.leak_audit then
        bad topo "leak audits (which trace) are not supported on a sharded run"

let default_classes =
  [ { Flowgen.name = "kv"; weight = 1.; resp_bytes = 2048; cached = true } ]

let workload =
  record
    (fun seed duration replicas stopwatch arrival classes keys theta
         request_bytes compute_branches header_bytes cache pool max_per_conn
         load_multipliers faults attack topology leak_audit ->
      { seed; duration; replicas; stopwatch; arrival; classes; keys; theta;
        cache; pool; max_per_conn; request_bytes; compute_branches;
        header_bytes; faults; attack; topology; load_multipliers; leak_audit })
  |> mem "seed" ~default:0xA77ACCL seed (fun w -> w.seed)
  |> mem "duration_s" ~default:(Time.s 10) duration (fun w -> w.duration)
  |> mem "replicas" ~default:3 (int |> where replicas) (fun w -> w.replicas)
  |> mem "stopwatch" ~default:true bool (fun w -> w.stopwatch)
  |> mem "arrival" arrival (fun w -> w.arrival)
  |> group "service"
       (fields
       |> mem "classes" ~default:default_classes
            (list cls |> where not_empty |> where weighted)
            (fun w -> w.classes)
       |> mem "keys" ~default:256 (count 1) (fun w -> w.keys)
       |> mem "zipf_theta" ~default:1.1 rate (fun w -> w.theta)
       |> mem "request_bytes" ~default:120 (count 1) (fun w -> w.request_bytes)
       |> mem "compute_branches" ~default:20_000 (count 0) (fun w ->
              w.compute_branches)
       |> mem "header_bytes" ~default:64 (count 0) (fun w -> w.header_bytes))
  |> mem "cache" ~default:Kv.default_config.Kv.cache cache (fun w -> w.cache)
  |> group "connections"
       (fields
       |> mem "pool" ~default:8 (count 1) (fun w -> w.pool)
       |> mem "max_per_conn" ~default:64 (count 0) (fun w -> w.max_per_conn))
  |> mem "load_multipliers" ~default:[ 1. ] (list rate |> where not_empty)
       (fun w -> w.load_multipliers)
  |> mem "faults" ~default:[] (list fault) (fun w -> w.faults)
  |> opt "attack" probe (fun w -> w.attack)
  |> opt "topology" topology (fun w -> w.topology)
  |> mem "leak_audit" ~default:false bool (fun w -> w.leak_audit)
  |> rule partition_rule

(* --- Attack -------------------------------------------------------------- *)

let variant =
  record (fun key baseline victim colluder -> { key; baseline; victim; colluder })
  |> mem "key" string (fun v -> v.key)
  |> mem "baseline" ~default:false bool (fun v -> v.baseline)
  |> mem "victim" ~default:false bool (fun v -> v.victim)
  |> mem "colluder" ~default:false bool (fun v -> v.colluder)
  |> seal

let distinct_keys path variants =
  List.iteri
    (fun i v ->
      let earlier = List.filteri (fun j _ -> j < i) variants in
      if List.exists (fun u -> u.key = v.key) earlier then
        bad (sub (nth path i) "key") (Printf.sprintf "duplicate key %S" v.key))
    variants

let attack =
  let d = Scenario.default in
  record (fun seed duration replicas ping_rate_per_s variants ->
      { seed; duration; replicas; ping_rate_per_s; variants })
  |> mem "seed" ~default:d.Scenario.seed seed (fun (a : attack) -> a.seed)
  |> mem "duration_s" ~default:(Time.s 60) duration (fun (a : attack) ->
         a.duration)
  |> mem "replicas" ~default:d.Scenario.config.Sw_vmm.Config.replicas
       (int |> where replicas) (fun (a : attack) -> a.replicas)
  |> mem "ping_rate_per_s" ~default:d.Scenario.ping_rate_per_s
       (number |> where positive) (fun (a : attack) -> a.ping_rate_per_s)
  |> mem "variants" (list variant |> where not_empty |> where distinct_keys)
       (fun a -> a.variants)

(* --- Top level ----------------------------------------------------------- *)

(* A top-level "comment" string is the one free-form key: read, checked,
   and never kept or printed. *)
let[@warning "-8"] scenario =
  record (fun name kind (_ : string option) -> { name; kind })
  |> mem "name" string (fun t -> t.name)
  |> cases "kind" ~what:"kind"
       ~label:(function Workload _ -> "workload" | Attack _ -> "attack")
       [ ("workload", lift (fun w -> Workload w) (fun (Workload w) -> w) workload);
         ("attack", lift (fun a -> Attack a) (fun (Attack a) -> a) attack) ]
       (fun t -> t.kind)
  |> opt "comment" string (fun _ -> None)
  |> seal

let validate t =
  match scenario.check root t with () -> Ok t | exception Bad msg -> Error msg

let parse s =
  Result.bind (Json.parse s) (fun json ->
      match scenario.decode root json with
      | t -> validate t
      | exception Bad msg -> Error msg)

let print t = Json.to_string (scenario.encode t)

let load_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | contents -> Result.map_error (Printf.sprintf "%s: %s" file) (parse contents)
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
  let arrival : Arrival.t =
    match w.arrival with
    | Constant { rate_per_s } -> Constant { rate_per_s = rate_per_s *. m }
    | Poisson { rate_per_s } -> Poisson { rate_per_s = rate_per_s *. m }
    | Diurnal d -> Diurnal { d with base_per_s = d.base_per_s *. m }
    | Flash f ->
        let base_per_s = f.base_per_s *. m and peak_per_s = f.peak_per_s *. m in
        Flash { f with base_per_s; peak_per_s }
    | Replay { points } ->
        Replay { points = List.map (fun (t, r) -> (t, r *. m)) points }
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
