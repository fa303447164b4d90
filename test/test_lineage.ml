(* Tests for the causal trace pipeline: the mini JSON reader, the trace
   window's drop accounting, export meta, lineage reconstruction (a qcheck
   property on synthetic well-formed streams, end-to-end runs with and
   without a replica crash, and a lineage-filtered trace against a
   keep-everything one on every fig4 variant), chrome-export determinism
   under -j 1 vs -j 4, the JSONL export's line contract, and the wall-clock
   profile. *)

module Time = Sw_sim.Time
module Trace = Sw_obs.Trace
module Event = Sw_obs.Event
module Lineage = Sw_obs.Lineage
module Export = Sw_obs.Export
module Chrome = Sw_obs.Chrome
module Json = Sw_obs.Json
module Profile = Sw_obs.Profile
module Registry = Sw_obs.Registry
module Scenario = Sw_attack.Scenario

(* --- Json ----------------------------------------------------------------- *)

let member name = function
  | Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

let test_json_parse () =
  (match Json.parse {| {"a":[1,2.5,-3e2],"b":"x\n\"y","c":true,"d":null} |} with
  | Error e -> Alcotest.fail ("valid JSON rejected: " ^ e)
  | Ok v ->
      (match member "a" v with
      | Some (Json.List [ x; y; z ]) ->
          Alcotest.(check bool) "int literal stays exact" true (x = Json.Int 1);
          Alcotest.(check (option (float 0.))) "int" (Some 1.) (Json.to_number x);
          Alcotest.(check (option (float 0.))) "frac" (Some 2.5) (Json.to_number y);
          Alcotest.(check (option (float 0.))) "exp" (Some (-300.))
            (Json.to_number z)
      | _ -> Alcotest.fail "array shape");
      Alcotest.(check bool) "escapes" true
        (member "b" v = Some (Json.String "x\n\"y"));
      Alcotest.(check bool) "bool member" true
        (member "c" v = Some (Json.Bool true));
      Alcotest.(check bool) "null member" true (member "d" v = Some Json.Null));
  (* Integers wider than [int] fall back to a float; finite only. *)
  Alcotest.(check bool) "wide integer" true
    (Json.parse "9223372036854775807" = Ok (Json.Float 9223372036854775807.));
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" bad)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "1e999";
      "-1e999" ];
  match Json.parse "[1,\n 1e999]" with
  | Ok _ -> Alcotest.fail "accepted an infinite literal"
  | Error e ->
      Alcotest.(check string) "positioned range error"
        "number out of range at line 2, column 2 (offset 5)" e

(* Trees the writer must round-trip: nested containers, strings with
   quotes, backslashes and control bytes, the extreme ints, and finite
   floats including exponents, denormals and negative zero. *)
let json_gen =
  let open QCheck.Gen in
  let str =
    string_size ~gen:(oneofl [ 'a'; 'z'; '"'; '\\'; '\n'; '\t'; '\001'; '\031'; ' ' ])
      (0 -- 6)
  in
  let num =
    oneof
      [
        map (fun i -> Json.Int i) (oneof [ int; oneofl [ min_int; max_int; 0 ] ]);
        map
          (fun f -> Json.Float f)
          (oneof
             [
               float_range (-1e6) 1e6;
               oneofl [ 1e12; 5e-324; -0.; 0.1; 1e300; -2.5e-7; 3. ];
               map (fun f -> if Float.is_finite f then f else 0.) float;
             ]);
      ]
  in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun s -> Json.String s) str;
        num;
      ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n - 1))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (0 -- 4) (pair str (self (n - 1)))) );
             ])

(* Equality up to the one normalisation json.mli allows: an integral
   float may read back as the equal [Int]. Floats otherwise compare by
   bits. *)
let rec same written read =
  match (written, read) with
  | Json.Float f, Json.Int i -> float_of_int i = f
  | Json.Float f, Json.Float g ->
      Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
  | Json.List l, Json.List l' -> List.equal same l l'
  | Json.Obj l, Json.Obj l' ->
      List.equal (fun (k, v) (k', v') -> String.equal k k' && same v v') l l'
  | a, b -> a = b

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse (to_string v) = v"
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' -> same v v'
      | Error _ -> false)

let test_json_non_finite () =
  List.iter
    (fun (f, text) ->
      Alcotest.(check bool)
        (text ^ " prints as a string")
        true
        (Json.parse (Json.to_string (Json.List [ Json.Float f ]))
        = Ok (Json.List [ Json.String text ])))
    [ (Float.nan, "nan"); (Float.infinity, "inf"); (Float.neg_infinity, "-inf") ]

let test_json_roundtrips_export () =
  (* The reader accepts what our own emitters produce. *)
  let r = Registry.create () in
  Registry.Counter.add (Registry.counter r "net.delivered") 3;
  Registry.Histogram.observe (Registry.histogram r "lat") 12_345;
  let parse s =
    match Json.parse s with
    | Error e -> Alcotest.fail ("export does not parse: " ^ e)
    | Ok v -> v
  in
  let meta = Export.meta ~seed:42L ~scenario:"t" ~trace_dropped:0 () in
  let first_line = List.hd (String.split_on_char '\n' (Export.jsonl ~meta [])) in
  Alcotest.(check bool) "meta.seed" true
    (Option.bind (member "meta" (parse first_line)) (member "seed")
    = Some (Json.Int 42));
  Alcotest.(check bool) "metrics present" true
    (Option.is_some
       (member "net.delivered" (parse (Export.to_json_string (Registry.snapshot r)))))

(* --- Trace drops ---------------------------------------------------------- *)

let delivered seq =
  Event.Packet_delivered
    { vm = 0; replica = 0; seq; virt_ns = seq * 1000 }

let test_trace_dropped () =
  let r = Registry.create () in
  let tr = Trace.create ~capacity:4 ~metrics:r () in
  Alcotest.(check int) "capacity" 4 (Trace.capacity tr);
  for seq = 1 to 10 do
    Trace.emit tr ~at_ns:seq (delivered seq)
  done;
  Alcotest.(check int) "dropped counts overwrites" 6 (Trace.dropped tr);
  Alcotest.(check int) "registry mirror" 6
    (Metric.counter (Registry.snapshot r) "trace.dropped");
  Trace.clear tr;
  Alcotest.(check int) "clear resets dropped" 0 (Trace.dropped tr);
  (* The truncation state rides into lineage and its summary. *)
  Trace.emit tr ~at_ns:1 (delivered 1);
  let l = Lineage.of_trace tr in
  Alcotest.(check int) "lineage carries dropped" 0 (Lineage.dropped l)

(* --- Export meta ---------------------------------------------------------- *)

let test_export_meta_shape () =
  let m =
    Export.meta ~seed:7L ~scenario:"x" ~trace_capacity:16 ~trace_dropped:2 ()
  in
  Alcotest.(check string) "meta object, declaration order"
    "{\"seed\":7,\"scenario\":\"x\",\"trace_capacity\":16,\"trace_dropped\":2}"
    (Json.to_string (Export.meta_json m));
  Alcotest.(check string) "absent fields omitted" "{}"
    (Json.to_string (Export.meta_json (Export.meta ())));
  (* Seeds past 2^53 print exactly (an int), and past [int] as a decimal
     string; both read back to the same int64. *)
  List.iter
    (fun (seed, text) ->
      let printed = Json.to_string (Export.meta_json (Export.meta ~seed ())) in
      Alcotest.(check string) "wide seed printed exactly"
        (Printf.sprintf "{\"seed\":%s}" text)
        printed;
      Alcotest.(check (option int64)) "wide seed reads back" (Some seed)
        (match Json.parse printed with
        | Ok v -> Option.bind (member "seed" v) Json.to_int64
        | Error e -> Alcotest.fail e))
    [
      (9007199254740993L, "9007199254740993");
      (Int64.max_int, "\"9223372036854775807\"");
    ];
  let r = Registry.create () in
  Registry.Counter.incr (Registry.counter r "a");
  let flat = Export.to_json_string (Registry.snapshot r) in
  Alcotest.(check string) "flat metric object"
    "{\"a\":{\"kind\":\"counter\",\"value\":1}}" flat;
  Alcotest.(check string) "JSONL export: meta line first"
    (Printf.sprintf "{\"meta\":%s}\n" (Json.to_string (Export.meta_json m)))
    (Export.jsonl ~meta:m [])

(* --- Lineage: synthetic well-formed streams -------------------------------- *)

(* A well-formed chain: ingress stamp, every replica proposes and records
   its peers, every replica adopts a median over all proposals, every
   replica delivers — all at non-decreasing instants. *)
let emit_chain tr ~vm ~seq ~t0 ~g1 ~g2 ~g3 =
  Trace.emit tr ~at_ns:t0
    (Event.Ingress_replicated { vm; ingress_seq = seq; copies = 3; size = 100 });
  let virt r = (1000 * seq) + r in
  for r = 0 to 2 do
    Trace.emit tr ~at_ns:(t0 + g1)
      (Event.Packet_proposed
         { vm; observer = r; proposer = r; ingress_seq = seq; virt_ns = virt r })
  done;
  for observer = 0 to 2 do
    for proposer = 0 to 2 do
      if observer <> proposer then
        Trace.emit tr ~at_ns:(t0 + g1 + g2)
          (Event.Packet_proposed
             { vm; observer; proposer; ingress_seq = seq; virt_ns = virt proposer })
    done
  done;
  let proposals = [ (0, virt 0); (1, virt 1); (2, virt 2) ] in
  for r = 0 to 2 do
    Trace.emit tr ~at_ns:(t0 + g1 + g2)
      (Event.Median_adopted
         { vm; replica = r; ingress_seq = seq; virt_ns = virt 1; proposals })
  done;
  for r = 0 to 2 do
    Trace.emit tr ~at_ns:(t0 + g1 + g2 + g3)
      (Event.Packet_delivered { vm; replica = r; seq; virt_ns = virt 1 })
  done

let prop_wellformed_stream_no_orphans =
  QCheck.Test.make ~count:200
    ~name:"well-formed stream: no orphans, lags non-negative, all complete"
    QCheck.(
      pair (1 -- 20)
        (list_of_size Gen.(return 3) (triple (0 -- 1000) (0 -- 1000) (0 -- 1000))))
    (fun (chains, gap_seed) ->
      let tr = Trace.create () in
      let gaps k =
        match List.nth_opt gap_seed (k mod List.length gap_seed) with
        | Some g -> g
        | None -> (1, 1, 1)
      in
      for k = 0 to chains - 1 do
        let g1, g2, g3 = gaps k in
        emit_chain tr ~vm:(k mod 2) ~seq:k ~t0:(k * 10_000) ~g1 ~g2 ~g3
      done;
      let l = Lineage.of_trace tr in
      let pa = Lineage.propose_to_adopt l in
      let ad = Lineage.adopt_to_deliver l in
      Lineage.orphans l = []
      && Lineage.negative_lags l = 0
      && Lineage.total l = chains
      && Lineage.complete l = chains
      && Lineage.in_flight l = 0
      && pa.Lineage.count = 3 * chains
      && ad.Lineage.count = 3 * chains
      && (pa.Lineage.count = 0 || pa.Lineage.min_ns >= 0)
      && (ad.Lineage.count = 0 || ad.Lineage.min_ns >= 0)
      &&
      let shares = List.map snd (Lineage.median_wins l) in
      Float.abs (List.fold_left ( +. ) 0. shares -. 1.) < 1e-9)

let test_lineage_in_flight_not_orphan () =
  (* Adopted but not delivered when the trace ends: in flight, not broken. *)
  let tr = Trace.create () in
  Trace.emit tr ~at_ns:10
    (Event.Packet_proposed
       { vm = 0; observer = 0; proposer = 0; ingress_seq = 0; virt_ns = 500 });
  Trace.emit tr ~at_ns:20
    (Event.Median_adopted
       {
         vm = 0;
         replica = 0;
         ingress_seq = 0;
         virt_ns = 500;
         proposals = [ (0, 500) ];
       });
  let l = Lineage.of_trace tr in
  Alcotest.(check int) "no orphans" 0 (List.length (Lineage.orphans l));
  Alcotest.(check int) "one in flight" 1 (Lineage.in_flight l);
  Alcotest.(check int) "none complete" 0 (Lineage.complete l)

let test_lineage_orphan_kinds () =
  let tr = Trace.create () in
  (* r0 proposes but never adopts; r1 delivers without a median. *)
  Trace.emit tr ~at_ns:10
    (Event.Packet_proposed
       { vm = 3; observer = 0; proposer = 0; ingress_seq = 7; virt_ns = 100 });
  Trace.emit tr ~at_ns:20
    (Event.Packet_delivered { vm = 3; replica = 1; seq = 7; virt_ns = 100 });
  match Lineage.orphans (Lineage.of_trace tr) with
  | [ a; b ] ->
      Alcotest.(check bool) "unadopted at r0" true
        (a.Lineage.o_replica = 0 && a.Lineage.kind = Lineage.Unadopted_proposal);
      Alcotest.(check bool) "unmatched at r1" true
        (b.Lineage.o_replica = 1 && b.Lineage.kind = Lineage.Unmatched_delivery)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 orphans, got %d" (List.length l))

(* --- End-to-end: traced scenario runs -------------------------------------- *)

let traced_spec ?(faults = Sw_fault.Schedule.empty) ~tr () =
  {
    Scenario.default with
    Scenario.duration = Time.s 1;
    ping_rate_per_s = 60.;
    faults;
    trace = Some tr;
  }

let test_scenario_fault_free_lineage () =
  let tr = Trace.create () in
  ignore (Scenario.run (traced_spec ~tr ()));
  let entries = Trace.entries tr in
  let has f = List.exists (fun (e : Trace.entry) -> f e.Trace.event) entries in
  Alcotest.(check bool) "ingress replication traced" true
    (has (function Event.Ingress_replicated _ -> true | _ -> false));
  Alcotest.(check bool) "egress median release traced" true
    (has (function Event.Egress_released _ -> true | _ -> false));
  let l = Lineage.of_trace tr in
  Alcotest.(check bool) "chains reconstructed" true (Lineage.total l > 0);
  Alcotest.(check int) "fault-free run: zero orphans" 0
    (List.length (Lineage.orphans l));
  Alcotest.(check int) "no causality inversions" 0 (Lineage.negative_lags l);
  Alcotest.(check bool) "roots carry the ingress stamp" true
    (List.for_all
       (fun (c : Lineage.chain) -> c.Lineage.ingress_at_ns <> None)
       (Lineage.chains l))

let test_scenario_crash_orphans () =
  let tr = Trace.create () in
  let faults =
    [
      Sw_fault.Schedule.at (Time.ms 250)
        (Sw_fault.Fault.Replica_crash { vm = 0; replica = 0; restart_after = None });
    ]
  in
  ignore (Scenario.run (traced_spec ~faults ~tr ()));
  let orphans = Lineage.orphans (Lineage.of_trace tr) in
  Alcotest.(check bool) "crash without restart orphans the survivors" true
    (List.length orphans > 0);
  Alcotest.(check bool) "all tagged unadopted-proposal" true
    (List.for_all
       (fun (o : Lineage.orphan) -> o.Lineage.kind = Lineage.Unadopted_proposal)
       orphans)

(* --- Lineage-filtered traces -------------------------------------------------- *)

let fig4_specs ~duration =
  let file =
    List.find Sys.file_exists [ "../examples/fig4.scn"; "examples/fig4.scn" ]
  in
  match Sw_workload.Dsl.load_file file with
  | Ok { Sw_workload.Dsl.kind = Sw_workload.Dsl.Attack a; _ } ->
      Sw_workload.Dsl.attack_specs { a with Sw_workload.Dsl.duration }
  | Ok _ -> Alcotest.fail "fig4.scn is not an attack scenario"
  | Error e -> Alcotest.fail e

(* A trace that keeps only what lineage reads must give the lineage of one
   that keeps every entry, window cut included, at every capacity. *)
let test_filtered_trace_equivalence () =
  List.iter
    (fun (key, spec) ->
      List.iter
        (fun capacity ->
          let traced keep =
            let tr = Trace.create ~capacity ?keep () in
            ignore (Scenario.run { spec with Scenario.trace = Some tr });
            tr
          in
          let full = traced None and kept = traced (Some Lineage.reads) in
          let name what = Printf.sprintf "%s cap=%d: %s" key capacity what in
          let lf = Lineage.of_trace full and lk = Lineage.of_trace kept in
          Alcotest.(check int) (name "dropped") (Trace.dropped full)
            (Trace.dropped kept);
          Alcotest.(check int) (name "lineage dropped") (Lineage.dropped lf)
            (Lineage.dropped lk);
          Alcotest.(check bool) (name "observations") true
            (Lineage.observations lf = Lineage.observations lk);
          Alcotest.(check bool) (name "orphans") true
            (Lineage.orphans lf = Lineage.orphans lk);
          Alcotest.(check bool) (name "propose->adopt") true
            (Lineage.propose_to_adopt lf = Lineage.propose_to_adopt lk);
          Alcotest.(check bool) (name "adopt->deliver") true
            (Lineage.adopt_to_deliver lf = Lineage.adopt_to_deliver lk);
          if key = "fig4/sw/victim" && capacity = 65536 then begin
            Alcotest.(check bool) (name "window cut") true
              (Trace.dropped full > 0);
            Alcotest.(check int) (name "full trace holds the window") capacity
              (Trace.length full);
            Alcotest.(check bool) (name "filtered trace stays small") true
              (Trace.length kept < capacity / 2)
          end)
        [ 4; 1_000; 65536 ])
    (fig4_specs ~duration:(Time.s 2))

(* --- Chrome export: structure and -j determinism ---------------------------- *)

let chrome_of_run () =
  let tr = Trace.create () in
  ignore (Scenario.run (traced_spec ~tr ()));
  let meta =
    Export.meta ~seed:Scenario.default.Scenario.seed ~scenario:"test"
      ~trace_capacity:(Trace.capacity tr) ~trace_dropped:(Trace.dropped tr) ()
  in
  Chrome.to_json ~meta (Trace.entries tr)

let test_chrome_structure () =
  let json = chrome_of_run () in
  match Json.parse json with
  | Error e -> Alcotest.fail ("chrome export does not parse: " ^ e)
  | Ok root ->
      let events =
        match member "traceEvents" root with
        | Some (Json.List l) -> l
        | _ -> Alcotest.fail "no traceEvents"
      in
      let ph p ev = member "ph" ev = Some (Json.String p) in
      let count p = List.length (List.filter (ph p) events) in
      Alcotest.(check bool) "has process metadata" true (count "M" > 0);
      Alcotest.(check bool) "has protocol slices" true (count "X" > 0);
      let starts = count "s" and ends = count "f" in
      Alcotest.(check bool) "has flow arrows" true (starts > 0);
      Alcotest.(check int) "every flow start has its finish" starts ends;
      Alcotest.(check (option (float 0.))) "meta rides in otherData"
        (Some (Int64.to_float Scenario.default.Scenario.seed))
        (Option.bind (member "otherData" root) (fun m ->
             Option.bind (member "seed" m) Json.to_number))

(* --- JSONL export ------------------------------------------------------------ *)

let test_jsonl_contract () =
  let tr = Trace.create () in
  ignore (Scenario.run (traced_spec ~tr ()));
  let entries = Trace.entries tr in
  let meta = Export.meta ~seed:Scenario.default.Scenario.seed ~scenario:"test" () in
  let jsonl = Export.jsonl ~meta entries in
  Alcotest.(check bool) "ends with a newline" true
    (String.ends_with ~suffix:"\n" jsonl);
  let lines =
    String.split_on_char '\n' (String.sub jsonl 0 (String.length jsonl - 1))
  in
  Alcotest.(check int) "one meta line plus one line per entry"
    (List.length entries + 1) (List.length lines);
  let parsed =
    List.map
      (fun l ->
        match Json.parse l with
        | Ok v -> v
        | Error e -> Alcotest.failf "jsonl line does not parse: %s" e)
      lines
  in
  match parsed with
  | first :: rest ->
      Alcotest.(check (option string)) "meta line first"
        (Some (Json.to_string (Export.meta_json meta)))
        (Option.map Json.to_string (member "meta" first));
      List.iter2
        (fun (e : Trace.entry) line ->
          Alcotest.(check (option (float 0.))) "entry timestamp"
            (Some (float_of_int e.Trace.at_ns))
            (Option.bind (member "at_ns" line) Json.to_number))
        entries rest
  | [] -> Alcotest.fail "empty export"

let test_chrome_bytes_j1_j4 () =
  (* Four traced runs of one fixed-seed spec: the exports must be
     byte-identical to each other and across worker counts. *)
  let module Runner = Sw_runner.Runner in
  let module Pool = Sw_runner.Pool in
  let jobs () =
    List.map
      (fun k ->
        (Printf.sprintf "trace/%d" k, chrome_of_run))
      [ 0; 1; 2; 3 ]
  in
  let seq = Runner.successes (Runner.map (jobs ())) in
  let par =
    Pool.with_pool ~workers:4 (fun pool ->
        Runner.successes (Runner.map ~pool (jobs ())))
  in
  Alcotest.(check int) "all jobs succeeded" 4 (List.length seq);
  Alcotest.(check int) "all parallel jobs succeeded" 4 (List.length par);
  match (seq, par) with
  | first :: _, _ ->
      List.iteri
        (fun k s ->
          Alcotest.(check bool)
            (Printf.sprintf "sequential run %d matches" k)
            true (String.equal first s))
        seq;
      List.iteri
        (fun k s ->
          Alcotest.(check bool)
            (Printf.sprintf "parallel run %d matches" k)
            true (String.equal first s))
        par
  | _ -> Alcotest.fail "no successes"

(* --- Profile ---------------------------------------------------------------- *)

(* Calls recorded by the profile's one timer. *)
let calls p =
  match Profile.to_list p with
  | [ (_, _, n) ] -> n
  | _ -> Alcotest.fail "one timer expected"

let test_profile () =
  let p = Profile.create () in
  Alcotest.(check bool) "off by default" false (Profile.enabled p);
  let tm = Profile.timer p "engine.dispatch" in
  Alcotest.(check int) "disabled time records nothing" 17
    (Profile.time p tm (fun () -> 17));
  Alcotest.(check int) "no calls" 0 (calls p);
  Profile.set_enabled p true;
  ignore (Profile.time p tm (fun () -> 1));
  (try Profile.time p tm (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "records through raise" 2 (calls p);
  Alcotest.(check bool) "total non-negative" true (Profile.total_ns tm >= 0);
  Profile.record_ns tm 5;
  Alcotest.(check int) "external record" 3 (calls p);
  match Profile.to_list p with
  | [ ("engine.dispatch", _, 3) ] -> ()
  | _ -> Alcotest.fail "to_list shape"

let test_profile_via_engine () =
  (* The engine times dispatches into the profile it was created with. *)
  let p = Profile.create ~enabled:true () in
  let e = Sw_sim.Engine.create ~profile:p () in
  Sw_sim.Engine.schedule_after e (Time.ms 1) (fun () -> ());
  Sw_sim.Engine.run e;
  match Profile.to_list p with
  | [ ("engine.dispatch", _, 1) ] -> ()
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected one dispatch sample, got %d timers"
           (List.length l))

let () =
  Alcotest.run "sw_obs_lineage"
    [
      ( "json",
        [
          Alcotest.test_case "parse and access" `Quick test_json_parse;
          Alcotest.test_case "roundtrips our exports" `Quick
            test_json_roundtrips_export;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          Alcotest.test_case "non-finite floats" `Quick test_json_non_finite;
        ] );
      ( "trace",
        [ Alcotest.test_case "dropped accounting" `Quick test_trace_dropped ] );
      ( "export",
        [
          Alcotest.test_case "meta shape" `Quick test_export_meta_shape;
          Alcotest.test_case "jsonl contract" `Slow test_jsonl_contract;
        ] );
      ( "lineage",
        [
          QCheck_alcotest.to_alcotest prop_wellformed_stream_no_orphans;
          Alcotest.test_case "in flight is not an orphan" `Quick
            test_lineage_in_flight_not_orphan;
          Alcotest.test_case "orphan kinds" `Quick test_lineage_orphan_kinds;
          Alcotest.test_case "fault-free scenario: complete chains" `Slow
            test_scenario_fault_free_lineage;
          Alcotest.test_case "crash schedule: tagged orphans" `Slow
            test_scenario_crash_orphans;
          Alcotest.test_case "filtered trace = full trace, fig4 at 2 s" `Slow
            test_filtered_trace_equivalence;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "structure" `Slow test_chrome_structure;
          Alcotest.test_case "bytes identical -j1 = -j4" `Slow
            test_chrome_bytes_j1_j4;
        ] );
      ( "profile",
        [
          Alcotest.test_case "accumulators" `Quick test_profile;
          Alcotest.test_case "engine dispatch timing" `Quick
            test_profile_via_engine;
        ] );
    ]
