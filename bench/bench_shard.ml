(* Shard-scale sweep: one datacenter-sized cloud (hosts carved into
   3-replica service cells, east-west traffic at a stride that straddles
   contiguous shard boundaries, and a 100 us rack-local replica
   interconnect below the 500 us fabric) simulated across shard counts and
   partitions, contiguous against affinity at each shard count.

   The sweep is built to show the two effects the conductor's fast path
   exists for:
   - the stride makes every east-west edge cross a contiguous block cut,
     while the affinity partitioner packs the stride cycles co-shard (cut
     weight 0) — so partition choice moves real cross-shard message load;
   - the fast replica links are intra-shard, so the conductor's per-pair
     lookahead matrix keeps every cross-shard floor at the 500 us fabric
     latency rather than the 100 us replica link.

   Two kinds of output, kept strictly apart:
   - "shard_scale" under "experiments": per configuration, the workload
     results, a byte-comparison of the contract metrics (everything
     outside [sim.*]) against the shards=1 run — the determinism claim of
     DESIGN.md's sharded-simulation section, machine-checked on every run —
     the contiguous-vs-affinity cut weights on the cell traffic graph, and
     the placement feasibility / co-residency numbers for the fleet size.
     All deterministic.
   - events/s, wall seconds, speedups, barrier-wait share, and warm-start
     build/restore times go to the "perf" object (non-deterministic by
     nature), along with the host's core count and the conductor's worker
     count at the guarded shard count. The @perf alias runs the quick form
     and fails if the guarded configuration drops more than 5x below the
     recorded floor, or below half the shards1 rate — a sharded run slower
     than one shard means the workers are fighting over too few cores.

   The full form runs a 10,080-host topology and goes through the
   [Sw_ckpt.Warm] cache: the first invocation builds each configuration
   once and checkpoints it at t=0, then restores it back before running —
   so every full run exercises the restore path end-to-end and later
   invocations skip the build entirely. *)

open Sw_experiments
module Time = Sw_sim.Time
module Dsl = Sw_workload.Dsl
module Run = Sw_workload.Run
module Snapshot = Sw_obs.Snapshot
module Export = Sw_obs.Export
module Report = Sw_runner.Report
module Placement = Sw_placement.Placement
module Affinity = Sw_placement.Affinity
module Warm = Sw_ckpt.Warm
module Cloud = Stopwatch.Cloud

let quick = ref false

(* main.exe --shards N narrows the sweep to shard counts [1; N] (N > 1),
   e.g. to probe one machine's sweet spot without paying the full ladder. *)
let shards_override : int option ref = ref None

let replicas = 3
let warm_dir = "_warm"

(* Recorded floor (guarded configuration events/s, quick form). The guard
   trips below floor/5. Update when the conductor materially changes. *)
let guarded_floor = 120_000.

(* The guarded configuration must reach this share of the shards1 rate. *)
let min_speedup = 0.5

let classes =
  [
    { Sw_workload.Flowgen.name = "page"; weight = 0.8; resp_bytes = 2048; cached = true };
    { Sw_workload.Flowgen.name = "asset"; weight = 0.2; resp_bytes = 8192; cached = true };
  ]

let workload ?(east_west = 10.) ?(replica_link = 100.) ?quantum_us ~hosts
    ~stride ~duration () : Dsl.workload =
  {
    Dsl.seed = 0x5AA6DCL;
    duration;
    replicas;
    stopwatch = true;
    arrival = Sw_workload.Arrival.Poisson { rate_per_s = 30. };
    classes;
    keys = 256;
    theta = 1.1;
    cache = Sw_workload.Kv.default_config.Sw_workload.Kv.cache;
    pool = 4;
    max_per_conn = 32;
    request_bytes = 120;
    compute_branches = 20_000;
    header_bytes = 64;
    faults = [];
    attack = None;
    topology =
      Some
        {
          Dsl.hosts;
          shards = 1;
          east_west_rate_per_s = east_west;
          east_west_stride = stride;
          partition = Dsl.Contiguous;
          replica_link_us = Some replica_link;
          quantum_us;
        };
    load_multipliers = [ 1. ];
    leak_audit = false;
  }

let contract_bytes metrics =
  Export.to_json_string (Snapshot.without_sim metrics)

(* P(two uniformly random [replicas]-machine groups intersect) out of [n]
   machines — the attacker co-residency probability the paper's Sec. VIII
   placement analysis drives to ~0 at datacenter scale. *)
let co_residency_probability ~n =
  let r = replicas in
  if n < 2 * r then 1.
  else begin
    (* 1 - C(n-r, r) / C(n, r), computed as a running product to stay
       stable at large n. *)
    let miss = ref 1. in
    for i = 0 to r - 1 do
      miss :=
        !miss
        *. float_of_int (n - r - i)
        /. float_of_int (n - i)
    done;
    1. -. !miss
  end

let placement_report ~hosts ~cells =
  let c = 6 in
  let bound = Placement.theorem2_bound ~n:hosts ~c in
  let feasible = cells <= bound in
  let utilization =
    match Placement.theorem2_place ~n:hosts ~c ~k:(min cells bound) with
    | Ok plan -> Placement.utilization plan
    | Error _ -> 0.
  in
  ( feasible,
    bound,
    utilization,
    co_residency_probability ~n:hosts )

type config = {
  label : string;
  shards : int;
  partition : [ `Contiguous | `Affinity | `Assign of int array ];
}

(* Per configuration: the baseline single shard, then for each shard count
   contiguous blocks against affinity packing, both under the per-pair
   lookahead bound — the speedup the perf block records is between those
   two at equal shard count. *)
let sweep () =
  let counts =
    match !shards_override with Some s when s > 1 -> [ s ] | _ -> [ 2; 4 ]
  in
  { label = "shards1"; shards = 1; partition = `Contiguous }
  :: List.concat_map
       (fun s ->
         [
           {
             label = Printf.sprintf "shards%d_contiguous" s;
             shards = s;
             partition = `Contiguous;
           };
           {
             label = Printf.sprintf "shards%d_affinity" s;
             shards = s;
             partition = `Affinity;
           };
         ])
       counts

type outcome = {
  cfg : config;
  r : Run.result;
  prep_s : float;  (** Build (or build+checkpoint+restore) wall time. *)
  warm : string;  (** "cold" | "built" | "restored". *)
  run_s : float;
  eps : float;
  windows : int;
  barrier_share : float;
  bytes : string;
}

let run_config ~w (cfg : config) =
  let prepare () = Run.prepare ~shards:cfg.shards ~partition:cfg.partition w in
  let t0 = Sw_obs.Profile.now_ns () in
  let handle, warm =
    if !quick then (prepare (), "cold")
    else begin
      (* Identity of the cached image: everything that shapes the build. *)
      let key =
        Printf.sprintf "bench_shard:%s:%s"
          (Digest.to_hex
             (Digest.string
                (Dsl.print { Dsl.name = "bench_shard"; kind = Dsl.Workload w })))
          cfg.label
      in
      match
        Warm.load_or_build ~dir:warm_dir ~key ~seed:w.Dsl.seed
          ~shards:cfg.shards ~build:prepare
      with
      | Error e ->
          Printf.eprintf "shard-scale: warm-start cache unusable (%s)\n%!" e;
          (prepare (), "cold")
      | Ok (h, Warm.Restored) -> (h, "restored")
      | Ok (_, Warm.Built) -> (
          (* First build of this configuration: run from a restored copy so
             the full form always exercises the restore path end-to-end. *)
          match
            Warm.load_or_build ~dir:warm_dir ~key ~seed:w.Dsl.seed
              ~shards:cfg.shards ~build:prepare
          with
          | Ok (h, Warm.Restored) -> (h, "built")
          | Ok (h, Warm.Built) ->
              Printf.eprintf
                "shard-scale: image for %s did not restore; running the cold \
                 build\n\
                 %!"
                cfg.label;
              (h, "built")
          | Error e ->
              Printf.eprintf
                "shard-scale: warm-start cache unusable after build (%s)\n%!" e;
              (prepare (), "built"))
    end
  in
  let prep_s = float_of_int (Sw_obs.Profile.now_ns () - t0) /. 1e9 in
  let t1 = Sw_obs.Profile.now_ns () in
  Cloud.run handle.Run.cloud ~until:handle.Run.until;
  let run_s = float_of_int (Sw_obs.Profile.now_ns () - t1) /. 1e9 in
  let r = handle.Run.finish () in
  let windows = Snapshot.counter r.Run.metrics "sim.shard.windows" in
  let barrier_share =
    let profile = Sw_sim.Engine.profile (Cloud.engine handle.Run.cloud) in
    let barrier = Sw_obs.Profile.timer profile "conductor.barrier" in
    float_of_int (Sw_obs.Profile.total_ns barrier) /. 1e9 /. run_s
  in
  {
    cfg;
    r;
    prep_s;
    warm;
    run_s;
    eps = float_of_int r.Run.fired /. run_s;
    windows;
    barrier_share;
    bytes = contract_bytes r.Run.metrics;
  }

(* Contiguous-vs-affinity cut weights on the cell traffic graph, per shard
   count — the deterministic half of the partition story. *)
let partition_stats g counts =
  List.map
    (fun s ->
      let contiguous =
        Affinity.cut_weight g (Affinity.contiguous ~cells:g.Affinity.cells ~shards:s)
      in
      let plan = Affinity.partition g ~shards:s in
      ( Printf.sprintf "shards%d" s,
        Report.Obj
          [
            ("contiguous_cut", Report.Float contiguous);
            ("affinity_cut", Report.Float plan.Affinity.cut_weight);
            ("total_weight", Report.Float plan.Affinity.total_weight);
            ("moved_cells", Report.Int plan.Affinity.moved_cells);
          ] ))
    counts

let run () =
  (* The sharded run puts several allocating domains on one major heap; with
     the default minor arenas every minor collection is a cross-domain
     stop-the-world sync, which swamps the window compute at this event
     rate. A 4 MB-per-domain nursery keeps the sync cadence sane. The full
     form also carries a ~0.5 GB live heap (10k hosts of VMM state); the
     default space_overhead of 120 re-marks it every few hundred MB of
     allocation, so give the major collector slack — wall time for memory
     on a box that has it. *)
  Gc.set
    {
      (Gc.get ()) with
      Gc.minor_heap_size = 4 * 1024 * 1024;
      space_overhead = 400;
    };
  let hosts = if !quick then 48 else 10_080 in
  let cells = hosts / replicas in
  (* Stride = cells/4: every east-west edge leaves its contiguous block at
     both swept shard counts, while the stride cycles (length 4) pack
     whole onto affinity shards — cut weight 0. *)
  let stride = cells / 4 in
  let duration = Time.ms 300 in
  (* Quick keeps the default 200 us quantum, the 100 us rack links, and a
     light east-west trickle (the partition effect shows up cleanly at 48
     hosts). The 10k-host form models the regime the fast path was built
     for: a 2 ms scheduler quantum so simulation cost follows the traffic
     under study rather than idle slices (at 200 us the fleet fires ~50M
     slice events over the 800 ms horizon and everything else vanishes
     into them), RDMA-class 2 us replica interconnects (intra-shard, so the
     per-pair matrix keeps the cross-shard windows at the 500 us fabric
     floor instead of 2 us), and enough east-west traffic that the
     partition choice moves real cross-shard message volume. *)
  let w =
    if !quick then workload ~hosts ~stride ~duration ()
    else
      workload ~east_west:100. ~replica_link:2. ~quantum_us:2000. ~hosts
        ~stride ~duration ()
  in
  let configs = sweep () in
  let counts =
    List.sort_uniq compare
      (List.filter_map
         (fun c -> if c.shards > 1 then Some c.shards else None)
         configs)
  in
  let guarded_shards = List.fold_left max 1 counts in
  let cores = Domain.recommended_domain_count () in
  Tables.section
    (Printf.sprintf
       "Shard scale: %d hosts, %d cells x %d replicas, east-west stride %d"
       hosts cells replicas stride);
  Tables.header ~width:12
    [ "config"; "completed"; "xshard"; "windows"; "warm"; "wall s"; "ev/s"; "same" ];
  let outcomes = List.map (run_config ~w) configs in
  let baseline =
    match outcomes with o :: _ -> o | [] -> assert false
  in
  let rows =
    List.map
      (fun o ->
        let identical = String.equal o.bytes baseline.bytes in
        Tables.row ~width:12
          [
            o.cfg.label;
            string_of_int o.r.Run.completed;
            string_of_int o.r.Run.cross_shard;
            string_of_int o.windows;
            o.warm;
            Tables.f2 o.run_s;
            Tables.f0 o.eps;
            (if identical then "yes" else "NO");
          ];
        (o, identical))
      outcomes
  in
  let g = Run.traffic_graph w in
  let cuts = partition_stats g counts in
  let feasible, bound, utilization, co_res = placement_report ~hosts ~cells in
  Printf.printf
    "placement: %d cells vs Theorem-2 bound %d (c=6) -> %s, utilization %.2f\n"
    cells bound
    (if feasible then "feasible" else "infeasible")
    utilization;
  Printf.printf "co-residency probability at n=%d: %.6f\n" hosts co_res;
  List.iter
    (fun (o, identical) ->
      if not identical then
        Printf.eprintf
          "shard-scale: %s metrics differ from shards=1 outside sim.*\n%!"
          o.cfg.label)
    rows;
  (* Affinity against contiguous at equal shard count, under the same
     per-pair lookahead — the headline number of the partitioner. *)
  let affinity_speedups =
    List.filter_map
      (fun s ->
        let find label =
          List.find_opt (fun o -> o.cfg.label = label) outcomes
        in
        match
          ( find (Printf.sprintf "shards%d_contiguous" s),
            find (Printf.sprintf "shards%d_affinity" s) )
        with
        | Some c, Some a when c.eps > 0. ->
            Some (s, a.eps /. c.eps)
        | _ -> None)
      counts
  in
  List.iter
    (fun (s, ratio) ->
      Printf.printf "shards=%d: affinity %.2fx contiguous\n" s ratio)
    affinity_speedups;
  Bench_report.add "shard_scale"
    (Report.Obj
       [
         ("hosts", Report.Int hosts);
         ("cells", Report.Int cells);
         ("replicas", Report.Int replicas);
         ("east_west_stride", Report.Int stride);
         ( "placement",
           Report.Obj
             [
               ("feasible", Report.Bool feasible);
               ("theorem2_bound", Report.Int bound);
               ("utilization", Report.Float utilization);
               ("co_residency_probability", Report.Float co_res);
             ] );
         ("partition", Report.Obj cuts);
         ( "runs",
           Report.Obj
             (List.map
                (fun (o, identical) ->
                  ( o.cfg.label,
                    Report.Obj
                      [
                        ("issued", Report.Int o.r.Run.issued);
                        ("completed", Report.Int o.r.Run.completed);
                        ("hits", Report.Int o.r.Run.hits);
                        ("misses", Report.Int o.r.Run.misses);
                        ("p50_ms", Report.Float o.r.Run.p50_ms);
                        ("p99_ms", Report.Float o.r.Run.p99_ms);
                        ("cross_shard", Report.Int o.r.Run.cross_shard);
                        ("windows", Report.Int o.windows);
                        ("identical_to_shards1", Report.Bool identical);
                      ] ))
                rows) );
       ]);
  Bench_report.add_perf "shard_scale"
    (Report.Obj
       ([
          ("cores", Report.Int cores);
          ("workers", Report.Int (min guarded_shards cores));
        ]
       @ List.map
           (fun (s, ratio) ->
             ( Printf.sprintf "shards%d_affinity_speedup" s,
               Report.Float ratio ))
           affinity_speedups
       @ List.map
           (fun o ->
             ( o.cfg.label,
               Report.Obj
                 [
                   ("events", Report.Int o.r.Run.fired);
                   ("prep_s", Report.Float o.prep_s);
                   ("warm", Report.String o.warm);
                   ("wall_s", Report.Float o.run_s);
                   ("events_per_s", Report.Float o.eps);
                   ("speedup", Report.Float (o.eps /. baseline.eps));
                   ("barrier_wait_share", Report.Float o.barrier_share);
                 ] ))
           outcomes));
  let any_broken = List.exists (fun (_, id) -> not id) rows in
  if any_broken then begin
    Printf.eprintf "shard-scale FAILED: the configuration changed the results\n%!";
    exit 1
  end;
  (* Floor and oversubscription guards: the fast-path configuration at the
     highest swept shard count, against the recorded floor and against the
     shards1 rate. *)
  let guarded =
    List.find_opt
      (fun o -> o.cfg.label = Printf.sprintf "shards%d_affinity" guarded_shards)
      outcomes
  in
  match guarded with
  | Some o when !quick && o.eps > 0. && o.eps *. 5. < guarded_floor ->
      Printf.eprintf
        "shard-scale perf regression: %s ran at %.0f events/s, more than 5x \
         below the floor of %.0f events/s\n\
         %!"
        o.cfg.label o.eps guarded_floor;
      exit 1
  | Some o when !quick && o.eps < min_speedup *. baseline.eps ->
      Printf.eprintf
        "shard-scale perf regression: %s ran at %.0f events/s, below %.1fx \
         the shards1 rate of %.0f events/s\n\
         %!"
        o.cfg.label o.eps min_speedup baseline.eps;
      exit 1
  | _ -> ()
