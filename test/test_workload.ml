(* sw_workload: arrival-process counts against their analytic means, DSL
   parse/print round-trips and error positions, the tiered cache's LRU
   mechanics, the fig4.scn = bench/fig4.ml spec equivalence, and the
   engine's -j1 = -j4 byte-identity contract. *)

module Time = Sw_sim.Time
module Prng = Sw_sim.Prng
module Arrival = Sw_workload.Arrival
module Keyspace = Sw_workload.Keyspace
module Cache = Sw_workload.Cache
module Dsl = Sw_workload.Dsl
module Run = Sw_workload.Run
module Scenario = Sw_attack.Scenario
module Pool = Sw_runner.Pool
module Runner = Sw_runner.Runner
module Export = Sw_obs.Export
module Snapshot = Sw_obs.Snapshot

let count_arrivals t ~seed ~until =
  let gen = Arrival.generator t ~rng:(Prng.create seed) ~until in
  let rec go n last =
    match Arrival.next gen with
    | None -> n
    | Some at ->
        assert (Time.compare at last > 0);
        assert (Time.compare at until < 0);
        go (n + 1) at
  in
  go 0 (Time.ns (-1))

(* Integral over [0, horizon] of one linear segment [(t0, v0) -> (t1, v1)],
   clipped. All in seconds. *)
let clip_trapezoid ~horizon (t0, t1, v0, v1) =
  let lo = Float.max t0 0. and hi = Float.min t1 horizon in
  if hi <= lo then 0.
  else
    let v at =
      if t1 = t0 then v0 else v0 +. ((v1 -. v0) *. (at -. t0) /. (t1 -. t0))
    in
    (v lo +. v hi) /. 2. *. (hi -. lo)

(* The exact expected number of arrivals in [0, until): the analytic
   integral of each process's instantaneous rate. *)
let mean_count t ~until =
  let pi = 4. *. atan 1. in
  let horizon = Time.to_float_s until in
  match t with
  | Arrival.Constant { rate_per_s } | Arrival.Poisson { rate_per_s } ->
      rate_per_s *. horizon
  | Arrival.Diurnal { base_per_s; amplitude; period } ->
      let p = Time.to_float_s period in
      let swing =
        base_per_s *. amplitude *. (p /. (2. *. pi))
        *. (1. -. cos (2. *. pi *. horizon /. p))
      in
      (base_per_s *. horizon) +. swing
  | Arrival.Flash { base_per_s; peak_per_s; at; ramp; hold } ->
      let t0 = Time.to_float_s at and r = Time.to_float_s ramp in
      let h = Time.to_float_s hold in
      let d = peak_per_s -. base_per_s in
      let pulse =
        [
          (t0, t0 +. r, 0., d);
          (t0 +. r, t0 +. r +. h, d, d);
          (t0 +. r +. h, t0 +. r +. h +. r, d, 0.);
        ]
      in
      (base_per_s *. horizon)
      +. List.fold_left (fun acc seg -> acc +. clip_trapezoid ~horizon seg) 0. pulse
  | Arrival.Replay { points } ->
      let rec go acc = function
        | [] -> acc
        | (from, r) :: rest ->
            let from = Time.to_float_s from in
            let upto =
              match rest with
              | (t', _) :: _ -> Time.to_float_s t'
              | [] -> Float.max horizon from
            in
            go (acc +. clip_trapezoid ~horizon (from, upto, r, r)) rest
      in
      go 0. points

(* Sampled counts stay within a 5-sigma Poisson band of the analytic mean:
   loose enough never to flake over the qcheck seed range, tight enough to
   catch a wrong envelope or integral. *)
let check_count t ~seed ~until =
  let mean = mean_count t ~until in
  let n = float_of_int (count_arrivals t ~seed ~until) in
  let slack = (5. *. sqrt mean) +. 10. in
  abs_float (n -. mean) <= slack

let prop_poisson_count =
  QCheck.Test.make ~count:40 ~name:"Poisson arrivals match the analytic mean"
    QCheck.(pair (int_range 10 400) int64)
    (fun (rate, seed) ->
      check_count
        (Arrival.Poisson { rate_per_s = float_of_int rate })
        ~seed ~until:(Time.s 10))

let prop_diurnal_count =
  QCheck.Test.make ~count:40 ~name:"diurnal arrivals match the analytic mean"
    QCheck.(triple (int_range 10 300) (float_range 0. 1.) int64)
    (fun (base, amplitude, seed) ->
      check_count
        (Arrival.Diurnal
           { base_per_s = float_of_int base; amplitude; period = Time.s 3 })
        ~seed ~until:(Time.s 10))

let prop_flash_count =
  QCheck.Test.make ~count:40 ~name:"flash-crowd arrivals match the analytic mean"
    QCheck.(pair (int_range 20 200) int64)
    (fun (peak, seed) ->
      check_count
        (Arrival.Flash
           {
             base_per_s = 15.;
             peak_per_s = float_of_int (peak + 20);
             at = Time.s 2;
             ramp = Time.ms 500;
             hold = Time.s 1;
           })
        ~seed ~until:(Time.s 6))

let test_constant_exact () =
  (* 50/s for 2 s: arrivals at 20 ms, 40 ms, ..., strictly below 2 s. *)
  let n =
    count_arrivals (Arrival.Constant { rate_per_s = 50. }) ~seed:1L
      ~until:(Time.s 2)
  in
  Alcotest.(check int) "constant count" 99 n;
  Alcotest.(check (float 1e-9))
    "constant mean"
    100.
    (mean_count (Arrival.Constant { rate_per_s = 50. }) ~until:(Time.s 2))

let test_replay_mean () =
  let t =
    Arrival.Replay
      { points = [ (Time.s 0, 10.); (Time.s 1, 100.); (Time.s 2, 0.) ] }
  in
  Alcotest.(check (float 1e-6))
    "replay integral" 110.
    (mean_count t ~until:(Time.s 5));
  Alcotest.(check bool) "replay sampled count" true
    (check_count t ~seed:7L ~until:(Time.s 5))

let test_arrival_determinism () =
  let t =
    Arrival.Diurnal { base_per_s = 120.; amplitude = 0.7; period = Time.s 2 }
  in
  let enumerate seed =
    let gen = Arrival.generator t ~rng:(Prng.create seed) ~until:(Time.s 4) in
    let rec go acc =
      match Arrival.next gen with None -> List.rev acc | Some a -> go (a :: acc)
    in
    go []
  in
  Alcotest.(check bool) "same seed, same instants" true
    (enumerate 42L = enumerate 42L);
  Alcotest.(check bool) "different seed, different instants" false
    (enumerate 42L = enumerate 43L)

(* An exponential gap can round to 0 ns. Under this seed, draws 472 and
   473 (from 0) of a 99/s Poisson process would both land at 4,702,453,568
   ns; every step is at least 1 ns, so the instants stay strictly
   increasing. *)
let test_zero_gap_seed () =
  let t = Arrival.Poisson { rate_per_s = 99. } in
  let seed = -7406911992168698275L and until = Time.s 10 in
  let gen = Arrival.generator t ~rng:(Prng.create seed) ~until in
  let draws = Array.init 474 (fun _ -> Option.get (Arrival.next gen)) in
  Alcotest.(check bool) "draw 473 after draw 472" true
    Time.(draws.(473) > draws.(472));
  Alcotest.(check bool) "count within the band" true (check_count t ~seed ~until)

(* --- keyspace ------------------------------------------------------------- *)

(* Key [k]'s weight, 1 / (k + 1) ^ theta normalised over [keys]. *)
let zipf_weight ~keys ~theta k =
  let w k = 1. /. Float.pow (float_of_int (k + 1)) theta in
  let total = ref 0. in
  for k = 0 to keys - 1 do
    total := !total +. w k
  done;
  w k /. !total

(* Empirical key frequencies over 100,000 draws: each within 0.01 of its
   normalised weight (several standard errors at this count). *)
let zipf_frequencies ks ~keys ~seed =
  let counts = Array.make keys 0 in
  let rng = Prng.create seed in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Keyspace.sample ks rng in
    counts.(k) <- counts.(k) + 1
  done;
  Array.map (fun c -> float_of_int c /. float_of_int n) counts

let test_zipf_weights () =
  let keys = 100 and theta = 1.1 in
  let freq = zipf_frequencies (Keyspace.create ~keys ~theta) ~keys ~seed:3L in
  Array.iteri
    (fun k f ->
      Alcotest.(check (float 0.01))
        (Printf.sprintf "key %d frequency" k)
        (zipf_weight ~keys ~theta k) f)
    freq;
  Alcotest.(check bool) "head hotter than tail" true (freq.(0) > 10. *. freq.(99));
  let uniform =
    zipf_frequencies (Keyspace.create ~keys:10 ~theta:0.) ~keys:10 ~seed:4L
  in
  Alcotest.(check (float 0.01)) "theta=0 is uniform" 0.1 uniform.(3)

let test_zipf_sample_range () =
  let ks = Keyspace.create ~keys:64 ~theta:1.3 in
  let rng = Prng.create 5L in
  for _ = 1 to 10_000 do
    let k = Keyspace.sample ks rng in
    if k < 0 || k >= 64 then Alcotest.fail "sample out of range"
  done

(* --- cache ---------------------------------------------------------------- *)

let two_tier =
  {
    Cache.tiers =
      [
        { Cache.capacity = 2; hit_cost = Time.us 10 };
        { Cache.capacity = 3; hit_cost = Time.us 100 };
      ];
    origin_cost = Time.ms 1;
  }

let test_cache_mechanics () =
  let c = Cache.create two_tier in
  (* Count the outcomes [Cache.access] returns. *)
  let hits = ref 0 and misses = ref 0 in
  let access key =
    let o = Cache.access c key in
    (match o with Cache.Hit _ -> incr hits | Cache.Miss _ -> incr misses);
    o
  in
  (match access 1 with
  | Cache.Miss { cost } ->
      Alcotest.(check int) "miss pays origin" (Time.ms 1) cost
  | Cache.Hit _ -> Alcotest.fail "cold access hit");
  (match access 1 with
  | Cache.Hit { tier; cost } ->
      Alcotest.(check int) "warm hit in tier 0" 0 tier;
      Alcotest.(check int) "hit pays tier cost" (Time.us 10) cost
  | Cache.Miss _ -> Alcotest.fail "warm access missed");
  (* Fill past tier 0: the LRU tail demotes to tier 1 and hits there. *)
  ignore (access 2);
  ignore (access 3);
  (match access 1 with
  | Cache.Hit { tier; _ } -> Alcotest.(check int) "demoted to tier 1" 1 tier
  | Cache.Miss _ -> Alcotest.fail "demoted key evicted");
  Alcotest.(check int) "hit count" 2 !hits;
  Alcotest.(check int) "miss count" 3 !misses

let test_cache_eviction () =
  let c = Cache.create two_tier in
  (* Capacity 2 + 3 = 5; six distinct keys must evict the coldest. Hits
     only reorder the tiers, so keys 1-5 all stay resident. *)
  for k = 0 to 5 do
    ignore (Cache.access c k)
  done;
  for k = 1 to 5 do
    match Cache.access c k with
    | Cache.Hit _ -> ()
    | Cache.Miss _ -> Alcotest.failf "key %d evicted" k
  done;
  match Cache.access c 0 with
  | Cache.Miss _ -> ()
  | Cache.Hit _ -> Alcotest.fail "evicted key still resident"

(* --- DSL ------------------------------------------------------------------ *)

(* dune runtest runs in _build/default/test; dune exec from the repo root. *)
let in_repo path =
  match List.find_opt Sys.file_exists [ "../" ^ path; path ] with
  | Some p -> p
  | None -> "../" ^ path

let scn file = in_repo ("examples/" ^ file)

let load file =
  match Dsl.load_file (scn file) with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s failed to load: %s" file e

let test_roundtrip () =
  List.iter
    (fun file ->
      let t = load file in
      let printed = Dsl.print t in
      match Dsl.parse printed with
      | Error e -> Alcotest.failf "%s: reprint does not parse: %s" file e
      | Ok t' ->
          if t <> t' then
            Alcotest.failf "%s: parse -> print -> parse not the identity" file;
          (* print is deterministic, so a second round is byte-stable. *)
          Alcotest.(check string) "print stable" printed (Dsl.print t'))
    [
      "fig4.scn"; "diurnal.scn"; "flash_crowd.scn"; "kv_skew.scn";
      "trace_replay.scn";
    ];
  (* Full-width seeds, inline and for both kinds: each re-parses to an
     equal scenario, and distinct seeds print distinct bytes (the printed
     form is the soak identity and the warm-start cache key). *)
  let scenario kind seed =
    match kind with
    | `Workload ->
        Printf.sprintf
          {|{ "name": "s", "kind": "workload", "seed": "%s",
             "arrival": { "process": "poisson", "rate_per_s": 10 } }|}
          seed
    | `Attack ->
        Printf.sprintf
          {|{ "name": "s", "kind": "attack", "seed": "%s",
             "variants": [ { "key": "a" } ] }|}
          seed
  in
  List.iter
    (fun kind ->
      let printed =
        List.map
          (fun seed ->
            let t =
              match Dsl.parse (scenario kind seed) with
              | Ok t -> t
              | Error e -> Alcotest.failf "seed %s rejected: %s" seed e
            in
            let printed = Dsl.print t in
            (match Dsl.parse printed with
            | Ok t' when t = t' -> ()
            | Ok _ -> Alcotest.failf "seed %s: reprint differs" seed
            | Error e -> Alcotest.failf "seed %s: reprint rejected: %s" seed e);
            printed)
          [ "0xDEADBEEFCAFEF00D"; "0xDEADBEEFCAFEF00E"; "0x7FFFFFFFFFFFFFFF" ]
      in
      match printed with
      | a :: b :: _ ->
          Alcotest.(check bool) "distinct seeds, distinct bytes" false
            (String.equal a b)
      | _ -> assert false)
    [ `Workload; `Attack ]

let expect_error ~substring source =
  match Dsl.parse source with
  | Ok _ -> Alcotest.failf "expected a parse error mentioning %S" substring
  | Error e ->
      let contains hay needle =
        let h = String.length hay and n = String.length needle in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        n = 0 || go 0
      in
      if not (contains e substring) then
        Alcotest.failf "error %S does not mention %S" e substring

let test_error_positions () =
  (* Lexical error: the reader reports line and column. *)
  expect_error ~substring:"line 3" "{\n  \"name\": \"x\",\n  \"kind\": }\n";
  expect_error ~substring:"column 11" "{\n  \"name\": \"x\",\n  \"kind\": }\n";
  (* A literal that overflows to infinity is refused where it stands. *)
  expect_error ~substring:"number out of range at line 2, column 17"
    "{ \"name\": \"x\", \"kind\": \"workload\",\n  \"duration_s\": 1e999 }";
  (* Structural errors: the decoder reports the field path. *)
  expect_error ~substring:"scenario.kind"
    {|{ "name": "x", "kind": "neither" }|};
  expect_error ~substring:"arrival.process"
    {|{ "name": "x", "kind": "workload",
       "arrival": { "process": "diurnl", "base_per_s": 10 } }|};
  expect_error ~substring:"missing required field"
    {|{ "name": "x", "kind": "workload" }|};
  expect_error ~substring:"faults[0]"
    {|{ "name": "x", "kind": "workload",
       "arrival": { "process": "poisson", "rate_per_s": 10 },
       "faults": [ { "at_ms": 5, "kind": "warp-core-breach" } ] }|};
  (* Semantic errors of either kind, and the command-line duration
     override, are named by field path too. *)
  let attack fields =
    Printf.sprintf
      {|{ "name": "x", "kind": "attack", %s "variants": [ { "key": "a" } ] }|}
      fields
  in
  let workload fields =
    Printf.sprintf
      {|{ "name": "x", "kind": "workload", %s
         "arrival": { "process": "poisson", "rate_per_s": 10 } }|}
      fields
  in
  expect_error ~substring:"scenario.replicas: must be odd and positive"
    (attack {|"replicas": 2,|});
  expect_error ~substring:"scenario.duration_s: must be > 0"
    (attack {|"duration_s": -5,|});
  expect_error ~substring:"scenario.duration_s: must be > 0"
    (workload {|"duration_s": 0,|});
  expect_error ~substring:"scenario.duration_s: must be > 0"
    (workload {|"duration_s": -1,|});
  (* Past Time's 2^62 ns a duration would wrap: the error names the value
     as written, not the wrapped one. *)
  let out_of_range = "must be finite and below 2^62 ns, about 146 years" in
  expect_error
    ~substring:("scenario.duration_s: " ^ out_of_range ^ " (got 1e+10)")
    (workload {|"duration_s": 1e10,|});
  expect_error
    ~substring:("scenario.duration_s: " ^ out_of_range ^ " (got -1e+10)")
    (attack {|"duration_s": -1e10,|});
  expect_error
    ~substring:("scenario.arrival.period_s: " ^ out_of_range ^ " (got 5e+09)")
    {|{ "name": "x", "kind": "workload",
       "arrival": { "process": "diurnal", "base_per_s": 10, "period_s": 5e9 } }|};
  expect_error
    ~substring:("scenario.faults[0].at_ms: " ^ out_of_range ^ " (got 1e+13)")
    (workload
       {|"faults": [ { "at_ms": 1e13, "kind": "link-loss", "p": 0.5 } ],|});
  expect_error ~substring:"scenario.replicas" (workload {|"replicas": 4,|});
  expect_error ~substring:"scenario.arrival.rate_per_s"
    {|{ "name": "x", "kind": "workload",
       "arrival": { "process": "poisson", "rate_per_s": -3 } }|};
  expect_error ~substring:"scenario.faults[0].p"
    (workload
       {|"faults": [ { "at_ms": 5, "kind": "link-loss", "p": 1.5 } ],|});
  expect_error ~substring:"scenario.variants[1].key"
    {|{ "name": "x", "kind": "attack",
       "variants": [ { "key": "a" }, { "key": "a", "victim": true } ] }|};
  (* A key no decoder reads is an error at its path, never ignored: a
     misspelt "victim" would run the no-victim half of the Fig. 4 pair. *)
  expect_error ~substring:"scenario.leak_adit: unknown field"
    (workload {|"leak_adit": true,|});
  expect_error ~substring:"scenario.service.zipf_thta: unknown field"
    (workload {|"service": { "zipf_thta": 1.2 },|});
  expect_error ~substring:"scenario.variants[0].vicitm: unknown field"
    {|{ "name": "x", "kind": "attack",
       "variants": [ { "key": "a", "vicitm": true } ] }|};
  expect_error ~substring:"scenario.trace: unknown field"
    (workload {|"trace": true,|});
  expect_error ~substring:"scenario.colluder_burst: unknown field"
    (attack {|"colluder_burst": 30,|});
  expect_error ~substring:"scenario.comment: expected a string"
    (workload {|"comment": 1,|});
  (* An empty sweep is refused rather than silently run at x1. *)
  expect_error ~substring:"scenario.load_multipliers: must not be empty"
    (workload {|"load_multipliers": [],|});
  (match Dsl.parse (workload {|"comment": "free-form",|}) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "a top-level comment was rejected: %s" e);
  List.iter
    (fun (file, seconds) ->
      match Dsl.override ~seconds (load file) with
      | Ok _ -> Alcotest.failf "%s: --seconds %g accepted" file seconds
      | Error e ->
          if not (String.starts_with ~prefix:"scenario.duration_s" e) then
            Alcotest.failf "%s: %S does not name the field" file e)
    [ ("fig4.scn", 0.); ("diurnal.scn", -1.); ("kv_skew.scn", 0.) ];
  List.iter
    (fun (seconds, shown) ->
      match Dsl.override ~seconds (load "diurnal.scn") with
      | Ok _ -> Alcotest.failf "--seconds %g accepted" seconds
      | Error e ->
          Alcotest.(check string) "out-of-range --seconds named as given"
            ("scenario.duration_s: " ^ out_of_range ^ " (got " ^ shown ^ ")")
            e)
    [ (5e9, "5e+09"); (Float.nan, "nan"); (Float.infinity, "inf") ]

(* The printed form of a scenario is its soak image identity and its
   warm-cache key, so a reordered or reformatted field would orphan every
   existing checkpoint directory. These digests pin the printed bytes of
   every shipped scenario, and every shipped scenario must have one. *)
let test_printed_bytes_pinned () =
  let pinned =
    [
      ("examples/datacenter.scn", "e8c39c54e2657adddff4ad74e5435e4c");
      ("examples/diurnal.scn", "69fdd2996abaea9fb941092f1d018c96");
      ("examples/fig4.scn", "2edaa0fab0808c4975c49795d6c8ae19");
      ("examples/flash_crowd.scn", "b57b393e2735a4ae25430eb1bed47f40");
      ("examples/kv_skew.scn", "3398eda046b4a4f28cbda131ba974aca");
      ("examples/trace_replay.scn", "69102253f4b853a9b455aa13e9c34584");
      ("perfbench/scn/fig4_leak.scn", "20b41a1ea78b94b344ff9b62d5f0e8b7");
      ("perfbench/scn/fleet_resume.scn", "6763c2931e21b23de1179e74ba010333");
      ("perfbench/scn/kv_base.scn", "31b33de74935ed6b92f3e92d5a839683");
    ]
  in
  let shipped =
    List.concat_map
      (fun dir ->
        Sys.readdir (in_repo dir)
        |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".scn")
        |> List.map (fun f -> dir ^ "/" ^ f))
      [ "examples"; "perfbench/scn" ]
  in
  Alcotest.(check (list string))
    "every shipped scenario is pinned" (List.map fst pinned)
    (List.sort compare shipped);
  List.iter
    (fun (path, digest) ->
      match Dsl.load_file (in_repo path) with
      | Error e -> Alcotest.failf "%s failed to load: %s" path e
      | Ok t ->
          Alcotest.(check string)
            (path ^ " printed bytes") digest
            (Digest.to_hex (Digest.string (Dsl.print t))))
    pinned

(* Scenarios of both kinds, with and without topology, faults and attack
   probe, and with a field out of range now and then. Spans are whole
   milliseconds or microseconds, so printing and re-reading them is exact. *)
let gen_scenario =
  let open QCheck.Gen in
  let sometimes bad good = frequency [ (40, good); (1, bad) ] in
  let some gen = list_size (sometimes (return 0) (int_range 1 3)) gen in
  let span unit = sometimes (int_range (-50) (-1)) (int_range 0 5000) >|= unit in
  let ms = span Time.ms and us = span Time.us in
  let rate = sometimes (float_range (-5.) (-0.1)) (float_range 0. 500.) in
  let share = sometimes (float_range 1.01 2.) (float_range 0. 1.) in
  let count lo = sometimes (int_range (lo - 3) (lo - 1)) (int_range lo 5000) in
  let replicas = sometimes (oneofl [ -1; 0; 2; 4 ]) (oneofl [ 1; 3; 5 ]) in
  let arrival st =
    match int_bound 4 st with
    | 0 -> Arrival.Constant { rate_per_s = rate st }
    | 1 -> Arrival.Poisson { rate_per_s = rate st }
    | 2 ->
        Arrival.Diurnal
          { base_per_s = rate st; amplitude = share st; period = ms st }
    | 3 ->
        let base_per_s = rate st in
        let above = sometimes (float_range (-9.) (-1.)) rate st in
        Arrival.Flash
          { base_per_s; peak_per_s = base_per_s +. above; at = ms st;
            ramp = ms st; hold = ms st }
    | _ ->
        let point = pair (int_range 0 60 >|= Time.ms) rate in
        Arrival.Replay
          { points = List.sort_uniq compare (list_size (int_range 0 4) point st) }
  in
  let fault st =
    let module F = Sw_fault.Fault in
    let index = count 0 st in
    let target = oneofl [ None; Some F.Ingress; Some F.Egress ] st in
    let fault =
      match int_bound 6 st with
      | 0 -> F.Link_loss { target; p = share st }
      | 1 -> F.Link_latency { target; extra = us st }
      | 2 -> F.Machine_stall { machine = index }
      | 3 ->
          let factor = 1. +. sometimes (float_range (-0.5) (-0.1)) rate st in
          F.Machine_slowdown { machine = index; factor }
      | 4 -> F.Dom0_pause { machine = index }
      | 5 -> F.Mcast_partition { vm = index; replica = count 0 st }
      | _ ->
          F.Replica_crash
            { vm = index; replica = count 0 st; restart_after = opt ms st }
    in
    { Sw_fault.Schedule.at = ms st; span = ms st; fault }
  in
  let cls st =
    { Sw_workload.Flowgen.name = oneofl [ "get"; "put"; "a\"b" ] st;
      weight = rate st; resp_bytes = count 1 st; cached = bool st }
  in
  let tier st = { Cache.capacity = count 1 st; hit_cost = us st } in
  let topology replicas st =
    let cells = int_range 1 8 st in
    let spare = sometimes (int_range 2 3) (return 1) st in
    { Dsl.hosts = cells * max replicas 1 * spare;
      shards = sometimes (int_range (-1) 3) (int_range 1 cells) st;
      east_west_rate_per_s = rate st; east_west_stride = count 1 st;
      partition = oneofl [ Dsl.Contiguous; Dsl.Affinity ] st;
      replica_link_us = opt rate st; quantum_us = opt rate st }
  in
  let workload st =
    let replicas = replicas st in
    let topology = opt (topology replicas) st in
    (* Mostly within the partition rule: a StopWatch run with no probe,
       faults or leak audit beside a topology block. *)
    let free = Option.is_none topology || int_bound 3 st = 0 in
    let probe = rate >|= fun r -> { Dsl.ping_rate_per_s = r } in
    { Dsl.seed = ui64 st; duration = ms st; replicas;
      stopwatch = (not free) || bool st; arrival = arrival st;
      classes = some cls st; keys = count 1 st; theta = rate st;
      cache = { Cache.tiers = some tier st; origin_cost = us st };
      pool = count 1 st; max_per_conn = count 0 st; request_bytes = count 1 st;
      compute_branches = count 0 st; header_bytes = count 0 st;
      faults = (if free then list_size (int_range 0 3) fault st else []);
      attack = (if free then opt probe st else None);
      topology; load_multipliers = some rate st;
      leak_audit = free && bool st }
  in
  let attack st =
    let variant st =
      { Dsl.key = oneofl [ "a"; "b"; "c"; "d" ] st; baseline = bool st;
        victim = bool st; colluder = bool st }
    in
    { Dsl.seed = ui64 st; duration = ms st; replicas = replicas st;
      ping_rate_per_s = rate st; variants = some variant st }
  in
  fun st ->
    let kind =
      if bool st then Dsl.Workload (workload st) else Dsl.Attack (attack st)
    in
    { Dsl.name = oneofl [ "s"; "fig \"4\"" ] st; kind }

(* One declaration validates both entry points: [override] on a typed
   scenario and [parse] on its printed form accept and reject the same
   values with the same message, and an accepted one survives the trip. *)
let prop_one_declaration =
  QCheck.Test.make ~count:400
    ~name:"override t agrees with parse (print t)"
    (QCheck.make ~print:Dsl.print gen_scenario)
    (fun t ->
      match (Dsl.override t, Dsl.parse (Dsl.print t)) with
      | Ok _, Ok t' -> t' = t
      | Error a, Error b -> String.equal a b
      | Ok _, Error _ | Error _, Ok _ -> false)

(* The generator reaches both outcomes, so the property checks each. *)
let test_generator_reaches_both () =
  let st = Random.State.make [| 22 |] in
  let outcomes =
    List.init 300 (fun _ -> Result.is_ok (Dsl.override (gen_scenario st)))
  in
  Alcotest.(check bool) "some accepted" true (List.mem true outcomes);
  Alcotest.(check bool) "some rejected" true (List.mem false outcomes)

let test_fig4_scn_matches_bench () =
  (* The DSL-compiled fig4 family must be structurally identical to the
     hand-built list bench/fig4.ml carried before it loaded the .scn file;
     identical specs make Scenario.run reproduce the seed output byte for
     byte. *)
  let specs =
    match load "fig4.scn" with
    | { Dsl.kind = Dsl.Attack a; _ } -> Dsl.attack_specs a
    | _ -> Alcotest.fail "fig4.scn is not an attack scenario"
  in
  let base = { Scenario.default with Scenario.duration = Time.s 60 } in
  let expected =
    [
      ("fig4/sw/no-victim", { base with Scenario.victim = false });
      ("fig4/sw/victim", { base with Scenario.victim = true });
      ("fig4/base/no-victim", { base with Scenario.baseline = true; victim = false });
      ("fig4/base/victim", { base with Scenario.baseline = true; victim = true });
    ]
  in
  Alcotest.(check int) "variant count" (List.length expected) (List.length specs);
  List.iter2
    (fun (k, s) (k', s') ->
      Alcotest.(check string) "key" k' k;
      if s <> s' then Alcotest.failf "%s: compiled spec differs from seed" k)
    specs expected

let test_variant_expansion () =
  let w =
    match load "kv_skew.scn" with
    | { Dsl.kind = Dsl.Workload w; _ } -> w
    | _ -> Alcotest.fail "kv_skew.scn is not a workload"
  in
  let variants = Dsl.workload_variants ~name:"kv" w in
  Alcotest.(check (list string))
    "keys" [ "kv/x0.5"; "kv/x1"; "kv/x2" ]
    (List.map fst variants);
  let seeds = List.map (fun (_, v) -> v.Dsl.seed) variants in
  Alcotest.(check bool) "seeds distinct" true
    (List.length (List.sort_uniq Int64.compare seeds) = 3);
  let rate v =
    match v.Dsl.arrival with
    | Arrival.Poisson { rate_per_s } -> rate_per_s
    | _ -> Alcotest.fail "expected poisson"
  in
  (match variants with
  | [ (_, half); (_, one); (_, two) ] ->
      Alcotest.(check (float 1e-9)) "x0.5 rate" 60. (rate half);
      Alcotest.(check (float 1e-9)) "x1 rate" 120. (rate one);
      Alcotest.(check (float 1e-9)) "x2 rate" 240. (rate two)
  | _ -> Alcotest.fail "expected three variants");
  (* A singleton [1.0] sweep is the identity. *)
  let single = { w with Dsl.load_multipliers = [ 1. ] } in
  match Dsl.workload_variants ~name:"kv" single with
  | [ (k, v) ] ->
      Alcotest.(check string) "singleton key" "kv" k;
      if v <> single then Alcotest.fail "singleton sweep altered the workload"
  | _ -> Alcotest.fail "singleton sweep expanded"

(* --- engine determinism --------------------------------------------------- *)

let small_workload () =
  match load "diurnal.scn" with
  | { Dsl.kind = Dsl.Workload w; _ } ->
      { w with Dsl.duration = Time.ms 800; load_multipliers = [ 0.5; 1. ] }
  | _ -> Alcotest.fail "diurnal.scn is not a workload"

let merged_bytes ~workers =
  let w = small_workload () in
  let jobs =
    List.map
      (fun (key, v) -> (key, fun () -> Run.run v))
      (Dsl.workload_variants ~name:"diurnal" w)
  in
  let outcomes =
    Pool.with_pool ~workers (fun pool -> Runner.map ~pool jobs)
  in
  let results = List.map Runner.get outcomes in
  List.iter
    (fun r ->
      Alcotest.(check bool) "served traffic" true (r.Run.completed > 0))
    results;
  Export.to_json_string
    (Snapshot.merge_all (List.map (fun r -> r.Run.metrics) results))

let test_j1_j4_bytes () =
  Alcotest.(check string)
    "-j1 and -j4 merge to identical bytes" (merged_bytes ~workers:1)
    (merged_bytes ~workers:4)

(* --- sharded determinism -------------------------------------------------- *)

(* The determinism contract excludes the engines' own bookkeeping ([sim.*]
   event counts split differently across shards); everything else must be
   byte-identical. *)
let contract_bytes metrics =
  Export.to_json_string (Snapshot.without_sim metrics)

let topo ?(stride = 1) ?(partition = Dsl.Contiguous) ?replica_link_us
    ?quantum_us ~hosts ~shards ~east_west_rate_per_s () =
  {
    Dsl.hosts;
    shards;
    east_west_rate_per_s;
    east_west_stride = stride;
    partition;
    replica_link_us;
    quantum_us;
  }

let datacenter_workload () =
  let w = small_workload () in
  {
    w with
    Dsl.duration = Time.ms 400;
    load_multipliers = [ 1. ];
    topology = Some (topo ~hosts:12 ~shards:1 ~east_west_rate_per_s:40. ());
  }

(* [Run.run] with the shard count or partition overridden, as the CLI
   flags override them through [Run.prepare]. *)
let run_with ?shards ?partition w =
  let h = Run.prepare ?shards ?partition w in
  Stopwatch.Cloud.run h.Run.cloud ~until:h.Run.until;
  h.Run.finish ()

let test_shards_1_vs_4_bytes () =
  let w = datacenter_workload () in
  let run shards =
    let r = run_with ~shards w in
    Alcotest.(check bool) "served traffic" true (r.Run.completed > 0);
    (r, contract_bytes r.Run.metrics)
  in
  let r1, b1 = run 1 and r4, b4 = run 4 in
  Alcotest.(check int) "issued" r1.Run.issued r4.Run.issued;
  Alcotest.(check int) "completed" r1.Run.completed r4.Run.completed;
  Alcotest.(check (float 0.)) "p50" r1.Run.p50_ms r4.Run.p50_ms;
  Alcotest.(check (float 0.)) "p99" r1.Run.p99_ms r4.Run.p99_ms;
  Alcotest.(check string) "shards=1 and shards=4 metrics bytes" b1 b4

(* The partition analogue of the shard-count contract, on the bench's
   chatty-but-splittable shape: a stride ring whose every east-west edge
   leaves its contiguous block, plus a fast rack-local replica
   interconnect that the per-pair lookahead matrix keeps out of the
   cross-shard windows. Contiguous blocks and affinity packing must both
   reproduce the shards=1 bytes — while moving real cross-shard load. *)
let test_partition_bytes () =
  let w =
    {
      (small_workload ()) with
      Dsl.duration = Time.ms 400;
      load_multipliers = [ 1. ];
      topology =
        Some
          (topo ~stride:2 ~replica_link_us:100. ~hosts:24 ~shards:2
             ~east_west_rate_per_s:40. ());
    }
  in
  let r1 = run_with ~shards:1 w in
  let contiguous = run_with ~partition:`Contiguous w in
  let affinity = run_with ~partition:`Affinity w in
  Alcotest.(check bool) "served traffic" true (r1.Run.completed > 0);
  Alcotest.(check string) "contiguous bytes"
    (contract_bytes r1.Run.metrics)
    (contract_bytes contiguous.Run.metrics);
  Alcotest.(check string) "affinity bytes"
    (contract_bytes r1.Run.metrics)
    (contract_bytes affinity.Run.metrics);
  (* The stride ring cuts every contiguous block boundary; affinity packs
     the stride cycles co-shard, so its cross-shard message count drops. *)
  Alcotest.(check bool) "contiguous pays cross-shard messages" true
    (contiguous.Run.cross_shard > 0);
  Alcotest.(check bool) "affinity cuts the cross-shard load" true
    (affinity.Run.cross_shard < contiguous.Run.cross_shard)

(* Stronger than the planner's own output: ANY valid cell-to-shard map
   (atoms respected by construction — Run expands cells to machines)
   reproduces the shards=1 bytes. Partition is an execution detail. *)
let prop_any_partition_same_bytes =
  let w =
    {
      (small_workload ()) with
      Dsl.duration = Time.ms 300;
      load_multipliers = [ 1. ];
      topology =
        Some
          (topo ~stride:1 ~replica_link_us:150. ~hosts:12 ~shards:2
             ~east_west_rate_per_s:40. ());
    }
  in
  let baseline = lazy (contract_bytes (run_with ~shards:1 w).Run.metrics) in
  QCheck.Test.make ~name:"random cell maps are byte-identical to shards=1"
    ~count:6
    QCheck.(array_of_size (QCheck.Gen.return 4) (int_range 0 1))
    (fun assign ->
      let r = run_with ~partition:(`Assign assign) w in
      String.equal (Lazy.force baseline) (contract_bytes r.Run.metrics))

(* Without a topology block the legacy single-cell path runs and [?shards]
   must be a pure no-op: a fig9-style slice is byte-identical — including
   the [sim.*] namespace, since the construction is the same single
   engine. *)
let test_shards_noop_without_topology () =
  let w = { (small_workload ()) with Dsl.load_multipliers = [ 1. ] } in
  let r1 = Run.run w and r4 = run_with ~shards:4 w in
  Alcotest.(check bool) "served traffic" true (r1.Run.completed > 0);
  Alcotest.(check int) "cross-shard traffic" 0 r4.Run.cross_shard;
  Alcotest.(check string) "full metrics bytes (sim.* included)"
    (Export.to_json_string r1.Run.metrics)
    (Export.to_json_string r4.Run.metrics)

let test_topology_rejects () =
  let w = datacenter_workload () in
  let bad topology = { w with Dsl.topology = Some topology } in
  let rejected w =
    match Dsl.override { Dsl.name = "dc"; kind = Dsl.Workload w } with
    | Ok _ -> false
    | Error _ -> true
  in
  Alcotest.(check bool) "hosts not a replica multiple" true
    (rejected (bad (topo ~hosts:13 ~shards:1 ~east_west_rate_per_s:40. ())));
  Alcotest.(check bool) "cells not divisible into shards" true
    (rejected (bad (topo ~hosts:12 ~shards:3 ~east_west_rate_per_s:40. ())));
  Alcotest.(check bool) "east-west stride below one" true
    (rejected
       (bad (topo ~stride:0 ~hosts:12 ~shards:1 ~east_west_rate_per_s:40. ())));
  Alcotest.(check bool) "non-positive replica link latency" true
    (rejected
       (bad
          (topo ~replica_link_us:0. ~hosts:12 ~shards:1
             ~east_west_rate_per_s:40. ())));
  Alcotest.(check bool) "non-positive scheduler quantum" true
    (rejected
       (bad
          (topo ~quantum_us:0. ~hosts:12 ~shards:1 ~east_west_rate_per_s:40.
             ())));
  Alcotest.(check bool) "faults excluded on sharded runs" true
    (rejected
       {
         (bad (topo ~hosts:12 ~shards:2 ~east_west_rate_per_s:40. ())) with
         Dsl.faults =
           [
             Sw_fault.Schedule.at (Time.ms 1)
               (Sw_fault.Fault.Machine_stall { machine = 0 });
           ];
       })

let () =
  Alcotest.run "sw_workload"
    [
      ( "arrival",
        [
          QCheck_alcotest.to_alcotest prop_poisson_count;
          QCheck_alcotest.to_alcotest prop_diurnal_count;
          QCheck_alcotest.to_alcotest prop_flash_count;
          Alcotest.test_case "constant is exact" `Quick test_constant_exact;
          Alcotest.test_case "replay integral" `Quick test_replay_mean;
          Alcotest.test_case "seed-deterministic" `Quick test_arrival_determinism;
          Alcotest.test_case "zero-ns gap stays increasing" `Quick
            test_zero_gap_seed;
        ] );
      ( "keyspace",
        [
          Alcotest.test_case "zipf weights" `Quick test_zipf_weights;
          Alcotest.test_case "sample range" `Quick test_zipf_sample_range;
        ] );
      ( "cache",
        [
          Alcotest.test_case "promote / demote / costs" `Quick
            test_cache_mechanics;
          Alcotest.test_case "eviction cascade" `Quick test_cache_eviction;
        ] );
      ( "dsl",
        [
          Alcotest.test_case "parse -> print -> parse" `Quick test_roundtrip;
          Alcotest.test_case "error positions and paths" `Quick
            test_error_positions;
          Alcotest.test_case "printed bytes pinned" `Quick
            test_printed_bytes_pinned;
          QCheck_alcotest.to_alcotest prop_one_declaration;
          Alcotest.test_case "generator reaches both outcomes" `Quick
            test_generator_reaches_both;
          Alcotest.test_case "fig4.scn = bench specs" `Quick
            test_fig4_scn_matches_bench;
          Alcotest.test_case "load-multiplier expansion" `Quick
            test_variant_expansion;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "workload merge -j1 = -j4" `Slow test_j1_j4_bytes;
          Alcotest.test_case "datacenter shards=1 = shards=4" `Slow
            test_shards_1_vs_4_bytes;
          Alcotest.test_case "partition is an execution detail" `Slow
            test_partition_bytes;
          QCheck_alcotest.to_alcotest prop_any_partition_same_bytes;
          Alcotest.test_case "?shards is a no-op without topology" `Slow
            test_shards_noop_without_topology;
          Alcotest.test_case "topology validation" `Quick test_topology_rejects;
        ] );
    ]
