(** The declarative scenario DSL: [.scn] files.

    A [.scn] file is one JSON object (parsed with the dependency-free
    {!Sw_obs.Json} reader, so malformed files report line/column) that
    describes a complete scenario as data — arrival process, service mix,
    cache tiers, connection policy, fault schedule, attack placement,
    leak audit, duration — and compiles into the existing
    in-tree spec types. Two kinds exist:

    - [kind = "workload"]: an open-loop traffic scenario compiled into a
      {!Flowgen.config} + {!Kv.config} cloud run (see [Run]). An optional
      ["load_multipliers"] list expands the scenario into one run per
      multiplier (arrival rates scaled), which is what [-j N] shards.
    - [kind = "attack"]: a Fig.-4-style attack scenario family compiled
      into {!Sw_attack.Scenario.spec} values, one per ["variants"] entry —
      proving the hand-coded figure benches are representable as data
      ([examples/fig4.scn] reproduces [bench/fig4.ml] byte-identically).

    Each field is declared once, inside the implementation, with its JSON
    name, default, value codec and value check; the decoder, the printer,
    the value checks and the unknown-key check all follow from that one
    declaration. Omitted fields take their defaults, so minimal files stay
    small; {!print} always re-emits every field, and
    [parse -> print -> parse] is the identity (the round-trip property the
    tests pin). A key the decoder does not know is an error, never
    silently ignored (["scenario.variants[0].vicitm: unknown field"]): a
    misspelt ["victim"] would otherwise run the no-victim configuration.
    The one free-form key is a top-level ["comment"] string. {!override}
    runs the same value checks over a typed scenario, without building
    any JSON. *)

type attack_variant = {
  key : string;  (** Runner job key, e.g. ["fig4/sw/victim"]. *)
  baseline : bool;
  victim : bool;
  colluder : bool;
}

type attack = {
  seed : int64;
  duration : Sw_sim.Time.t;
  replicas : int;
  ping_rate_per_s : float;
  variants : attack_variant list;
}

(** Attack placement inside a workload scenario: a co-resident observer VM
    (the Fig. 4 receiver) deployed on the service's machines, pinged from
    an external host — pointing the attack library at the workload's
    cache-asymmetry channel. *)
type attack_probe = { ping_rate_per_s : float }

(** How the shard partitioner assigns cells to shards: [Contiguous] cuts
    static contiguous blocks, [Affinity] runs {!Sw_placement.Affinity}
    over the cell traffic graph (east-west flows are the edge weights) so
    chatty cells land co-shard. Either way the report bytes are identical
    — the partition is an execution detail. *)
type partition = Contiguous | Affinity

(** Datacenter-scale topology: [hosts] machines carved into
    [hosts/replicas] service cells (one replica group + one client host +
    one east-west host each), simulated over [shards] conservative
    shards ({!Stopwatch.Cloud.create}'s [?shards]). [east_west_rate_per_s]
    adds a low-rate flow from every cell toward the cell
    [east_west_stride] further on (mod the cell count; default 1, the
    neighbour ring) — genuine cross-shard traffic when shards > 1, and
    with a stride spanning contiguous blocks, exactly the chatty-but-
    splittable pattern affinity partitioning repairs. [replica_link_us],
    when set, gives every cell's intra-cell VMM pairs a fast rack-local
    interconnect at that latency (zero jitter) below the 500 us fabric
    default — the per-pair lookahead matrix keeps such links from
    throttling cross-shard windows. [quantum_us], when set, overrides the
    VMM scheduler quantum (default 200 us) for every machine in the
    topology: 10k-host sweeps use a coarser quantum so simulation cost is
    dominated by the traffic under study rather than by idle scheduler
    slices. A fidelity knob, applied uniformly — shard count and partition
    still never change the report bytes. *)
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
  duration : Sw_sim.Time.t;
  replicas : int;
  stopwatch : bool;  (** [false] = unmodified-Xen baseline. *)
  arrival : Arrival.t;
  classes : Flowgen.cls list;
  keys : int;
  theta : float;  (** Zipf exponent of the key popularity. *)
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
      (** Record leak-observation series during the run: forces the trace
          sink on and fills {!Run.result}'s [leak_series] from the lineage
          [observations] fold plus the attack probe's inter-delivery
          series. *)
}

type kind = Attack of attack | Workload of workload
type t = { name : string; kind : kind }

(** [parse s] = JSON parse (line/column errors), then one decode that
    rejects unknown keys, then the value checks of {!override}; each
    failure has field-path context
    (e.g. ["scenario.arrival.process: unknown process \"diurnl\""],
    ["scenario.replicas: must be odd and positive (got 2)"],
    ["scenario.leak_adit: unknown field"]). *)
val parse : string -> (t, string) result

(** The compact JSON form of [t], every field explicit (defaults
    included), in declaration order; optional blocks that are [None] are
    left out. *)
val print : t -> string

(** Reads and parses a file; errors are prefixed with the path. *)
val load_file : string -> (t, string) result

(** Compile an attack scenario family into runner-keyed specs, in variant
    order. *)
val attack_specs : attack -> (string * Sw_attack.Scenario.spec) list

(** The command-line overrides, applied in this one place: [seconds]
    replaces the duration of either kind; [shards] and [partition] replace
    the topology block's own fields (a scenario without a topology block
    runs unsharded and ignores them). The result is validated as
    {!parse} validates a file: every semantic error of either kind is
    rejected with a field-path message — non-positive durations, even or
    non-positive replica counts, negative rates, sizes and spans,
    malformed caches, service mixes and fault windows, duplicate attack
    variant keys, and the topology block's partition rule (hosts a
    multiple of replicas; cells dividing evenly into shards; no faults,
    leak audit or attack probe on a sharded run). Only values are
    checked, so validating costs microseconds. With no override this is
    validation alone. *)
val override :
  ?seconds:float -> ?shards:int -> ?partition:partition -> t -> (t, string) result

(** The shard count a workload runs on: its topology block's, else 1. *)
val shards : workload -> int

(** [workload_variants ~name w] expands [w.load_multipliers] into one
    scaled run per multiplier, keyed ["<name>/x<mult>"], each with a seed
    derived deterministically from [w.seed] and its position. A singleton
    [1.0] sweep yields exactly [(name, w)]. *)
val workload_variants : name:string -> workload -> (string * workload) list
