(* Tests for sw_obs: registry semantics (counter/sum/gauge/histogram, path
   validation), bucket indexing, [Int_tbl]'s iteration order against
   Stdlib's [Hashtbl.Make], the snapshot partition-merge property that
   parallel benches lean on, deterministic JSON export, the trace ring
   (ordering, wraparound, lazy emission, spans), the profiler's own
   allocation, and a fig4-style end-to-end check that merged snapshots are byte-identical under -j 1 and -j 4. *)

module Registry = Sw_obs.Registry
module Snapshot = Sw_obs.Snapshot
module Buckets = Sw_obs.Buckets
module Event = Sw_obs.Event
module Trace = Sw_obs.Trace
module Export = Sw_obs.Export
module Int_tbl = Sw_obs.Int_tbl

(* --- Registry ------------------------------------------------------------- *)

let test_counter () =
  let r = Registry.create () in
  let c = Registry.counter r "a.b.count" in
  Registry.Counter.incr c;
  Registry.Counter.add c 41;
  Alcotest.(check int) "value" 42 (Registry.Counter.value c);
  Alcotest.(check int) "snapshot" 42
    (Metric.counter (Registry.snapshot r) "a.b.count");
  (* Handles are create-or-return: same path, same cell. *)
  Registry.Counter.incr (Registry.counter r "a.b.count");
  Alcotest.(check int) "shared cell" 43 (Registry.Counter.value c);
  Registry.Counter.reset c;
  Alcotest.(check int) "reset in place" 0 (Registry.Counter.value c);
  Alcotest.(check int) "snapshot after reset" 0
    (Metric.counter (Registry.snapshot r) "a.b.count")

let test_sum_gauge () =
  let r = Registry.create () in
  let s = Registry.sum r "credits" in
  Registry.Sum.add s 0.5;
  Registry.Sum.add s 0.25;
  Alcotest.(check (float 0.)) "sum accumulates" 0.75
    (Metric.sum (Registry.snapshot r) "credits");
  let g = Registry.gauge r "depth" in
  Registry.Gauge.observe g 3.;
  Registry.Gauge.observe g 7.;
  Registry.Gauge.observe g 5.;
  Alcotest.(check (float 0.)) "gauge is a watermark" 7.
    (Metric.gauge (Registry.snapshot r) "depth")

let test_gauge_observe_int () =
  (* The unboxed int path and the float path share one watermark; snapshots
     report the max across both. *)
  let r = Registry.create () in
  let g = Registry.gauge r "depth" in
  let depth () = Metric.gauge (Registry.snapshot r) "depth" in
  Registry.Gauge.observe_int g 4;
  Registry.Gauge.observe_int g 9;
  Registry.Gauge.observe_int g 2;
  Alcotest.(check (float 0.)) "int watermark" 9. (depth ());
  Registry.Gauge.observe g 11.5;
  Alcotest.(check (float 0.)) "float path can raise it" 11.5 (depth ());
  Registry.Gauge.observe_int g 11;
  Alcotest.(check (float 0.)) "lower int does not" 11.5 (depth ())

let test_histogram () =
  let r = Registry.create () in
  let h = Registry.histogram r "lat" in
  let lat () = Metric.histogram (Registry.snapshot r) "lat" in
  Alcotest.(check int) "empty" 0 (lat ()).Snapshot.count;
  List.iter (Registry.Histogram.observe h) [ 10; 1_000; 10; 999_999 ];
  let hist = lat () in
  Alcotest.(check int) "count" 4 hist.Snapshot.count;
  Alcotest.(check int) "total" 1_001_019 hist.Snapshot.total;
  Alcotest.(check int) "max" 999_999 hist.Snapshot.max;
  Alcotest.(check int) "min" 10 hist.Snapshot.min;
  let bucket_total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 hist.Snapshot.buckets
  in
  Alcotest.(check int) "buckets cover every observation" 4 bucket_total

let test_path_validation () =
  let r = Registry.create () in
  Alcotest.check_raises "empty path"
    (Invalid_argument "Registry: empty metric path") (fun () ->
      ignore (Registry.counter r ""));
  (match Registry.counter r "ok.path_-0" with
  | _ -> ());
  (try
     ignore (Registry.counter r "bad path");
     Alcotest.fail "space accepted"
   with Invalid_argument _ -> ());
  ignore (Registry.sum r "dual");
  try
    ignore (Registry.counter r "dual");
    Alcotest.fail "kind mismatch accepted"
  with Invalid_argument _ -> ()

(* --- Buckets -------------------------------------------------------------- *)

let test_bucket_bounds_monotone () =
  for i = 1 to Buckets.count - 1 do
    if Buckets.bound (i - 1) >= Buckets.bound i then
      Alcotest.fail "bucket bounds must be strictly increasing"
  done;
  Alcotest.(check int) "catch-all" max_int
    (Buckets.bound (Buckets.count - 1))

let prop_bucket_index =
  QCheck.Test.make ~count:1000 ~name:"index places a value within its bounds"
    QCheck.(int_bound 1_000_000_000)
    (fun n ->
      let i = Buckets.index n in
      let upper_ok = n <= Buckets.bound i in
      let lower_ok = i = 0 || Buckets.bound (i - 1) < n in
      upper_ok && lower_ok)

(* --- Int_tbl: Stdlib's order --------------------------------------------- *)

(* [Int_tbl] keeps Stdlib's layout, so reports that walk one come out in
   the order [Hashtbl.Make] with the same hash would give. *)
module Ref_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x2545_F491_4F6C_DD1D in
    h lxor (h lsr 32)
end)

type tbl_op = Add of int * int | Replace of int * int | Remove of int | Reset

let tbl_op_gen =
  QCheck.Gen.(
    (* Mostly a small key range, so chains collide and keys repeat, plus
       keys that differ only in high bits or are negative. *)
    let key =
      frequency
        [ (8, int_bound 150); (1, map (fun k -> k lsl 40) (int_bound 7)); (1, map Int.neg (int_bound 50)) ]
    in
    frequency
      [
        (6, map2 (fun k v -> Add (k, v)) key nat);
        (6, map2 (fun k v -> Replace (k, v)) key nat);
        (3, map (fun k -> Remove k) key);
        (1, return Reset);
      ])

let prop_int_tbl_order =
  QCheck.Test.make ~count:300
    ~name:"Int_tbl iterates, folds and counts as Hashtbl.Make does"
    QCheck.(
      pair (int_bound 64)
        (make ~print:(fun ops -> string_of_int (List.length ops))
           (Gen.list_size Gen.(0 -- 400) tbl_op_gen)))
    (fun (size, ops) ->
      let t = Int_tbl.create size and r = Ref_tbl.create size in
      List.iter
        (function
          | Add (k, v) -> Int_tbl.add t k v; Ref_tbl.add r k v
          | Replace (k, v) -> Int_tbl.replace t k v; Ref_tbl.replace r k v
          | Remove k -> Int_tbl.remove t k; Ref_tbl.remove r k
          | Reset -> Int_tbl.reset t; Ref_tbl.reset r)
        ops;
      let walked iter tbl =
        let acc = ref [] in
        iter (fun k v -> acc := (k, v) :: !acc) tbl;
        !acc
      in
      let folded fold tbl = fold (fun k v acc -> (k, v) :: acc) tbl [] in
      let keys = List.init 160 (fun k -> k - 10) in
      walked Int_tbl.iter t = walked Ref_tbl.iter r
      && folded Int_tbl.fold t = folded Ref_tbl.fold r
      && Int_tbl.length t = Ref_tbl.length r
      && List.for_all
           (fun k ->
             Int_tbl.find_opt t k = Ref_tbl.find_opt r k
             && Int_tbl.mem t k = Ref_tbl.mem r k)
           keys)

(* --- Snapshot merge: arbitrary partitions --------------------------------- *)

(* One recorded operation. Sum payloads are quarter-integers, so float
   addition is exact and the partition property can demand byte equality. *)
type op =
  | Count of int * int  (* path index, amount *)
  | Credit of int * int  (* path index, quarters *)
  | Water of int * int  (* path index, level *)
  | Observe of int * int  (* path index, ns *)

let apply r = function
  | Count (p, n) ->
      Registry.Counter.add (Registry.counter r (Printf.sprintf "c%d" p)) n
  | Credit (p, q) ->
      Registry.Sum.add
        (Registry.sum r (Printf.sprintf "s%d" p))
        (float_of_int q /. 4.)
  | Water (p, v) ->
      Registry.Gauge.observe
        (Registry.gauge r (Printf.sprintf "g%d" p))
        (float_of_int v)
  | Observe (p, v) ->
      Registry.Histogram.observe
        (Registry.histogram r (Printf.sprintf "h%d" p))
        v

let op_gen =
  QCheck.Gen.(
    let path = int_bound 3 in
    oneof
      [
        map2 (fun p n -> Count (p, n)) path (int_bound 100);
        map2 (fun p q -> Credit (p, q)) path (int_bound 40);
        map2 (fun p v -> Water (p, v)) path (int_bound 1000);
        map2 (fun p v -> Observe (p, v)) path (int_bound 1_000_000);
      ])

let prop_snapshot_merge_partitions =
  QCheck.Test.make ~count:300
    ~name:"merging per-chunk registries over any partition equals one stream"
    QCheck.(
      pair
        (make ~print:(fun ops -> string_of_int (List.length ops))
           (Gen.list_size Gen.(1 -- 80) op_gen))
        (list_of_size Gen.(0 -- 6) (int_bound 12)))
    (fun (ops, cut_sizes) ->
      let whole = Registry.create () in
      List.iter (apply whole) ops;
      let chunks =
        let rec take n = function
          | [] -> ([], [])
          | l when n = 0 -> ([], l)
          | x :: tl ->
              let a, b = take (n - 1) tl in
              (x :: a, b)
        in
        let rec go rest = function
          | [] -> [ rest ]
          | n :: ns ->
              let chunk, rest' = take n rest in
              chunk :: go rest' ns
        in
        go ops cut_sizes
      in
      let merged =
        Snapshot.merge_all
          (List.map
             (fun chunk ->
               let r = Registry.create () in
               List.iter (apply r) chunk;
               Registry.snapshot r)
             chunks)
      in
      String.equal
        (Export.to_json_string (Registry.snapshot whole))
        (Export.to_json_string merged))

let test_merge_kind_mismatch () =
  let a = Registry.create () and b = Registry.create () in
  ignore (Registry.counter a "x");
  ignore (Registry.gauge b "x");
  try
    ignore (Snapshot.merge (Registry.snapshot a) (Registry.snapshot b));
    Alcotest.fail "kind mismatch must not merge"
  with Invalid_argument _ -> ()

(* --- Export --------------------------------------------------------------- *)

let test_export_shape () =
  let r = Registry.create () in
  Registry.Counter.add (Registry.counter r "net.delivered") 3;
  Registry.Sum.add (Registry.sum r "vm0.median.source.r1") 1.5;
  Registry.Gauge.observe (Registry.gauge r "b") 2.25;
  let h = Registry.histogram r "c" in
  Registry.Histogram.observe h 12_345;
  Registry.Histogram.observe h 1_000_000_000_000_000;
  ignore (Registry.histogram r "d");
  Alcotest.(check string) "sorted, compact JSON"
    "{\"b\":{\"kind\":\"gauge\",\"value\":2.25},\
     \"c\":{\"kind\":\"histogram\",\"count\":2,\"total\":1000000000012345,\
     \"min\":12345,\"max\":1000000000000000,\
     \"buckets\":[[20000,1],[null,1]]},\
     \"d\":{\"kind\":\"histogram\",\"count\":0,\"total\":0,\
     \"min\":null,\"max\":null,\"buckets\":[]},\
     \"net.delivered\":{\"kind\":\"counter\",\"value\":3},\
     \"vm0.median.source.r1\":{\"kind\":\"sum\",\"value\":1.5}}"
    (Export.to_json_string (Registry.snapshot r))

(* --- Trace ---------------------------------------------------------------- *)

let delivered seq =
  Event.Packet_delivered
    { vm = 0; replica = 0; seq; virt_ns = seq * 1000 }

(* Components emit through their engine: with no trace attached the guard
   is false and an emit is dropped; once attached, entries carry the
   engine's clock. *)
let test_trace_lazy_emission () =
  let tr = Trace.create () in
  Trace.emit tr ~at_ns:2 (delivered 2);
  Alcotest.(check int) "trace records" 1 (Trace.length tr);
  let e = Sw_sim.Engine.create () in
  Alcotest.(check bool) "absent sink inactive" false (Sw_sim.Engine.tracing e);
  Sw_sim.Engine.emit e (delivered 3);
  Sw_sim.Engine.schedule_at e 7 (fun () -> ());
  Sw_sim.Engine.run e;
  Sw_sim.Engine.attach_trace e tr;
  Alcotest.(check bool) "attached sink active" true (Sw_sim.Engine.tracing e);
  Sw_sim.Engine.emit e (delivered 4);
  Alcotest.(check (list int)) "engine stamps now" [ 2; 7 ]
    (List.map (fun en -> en.Trace.at_ns) (Trace.entries tr))

let test_trace_order_and_wraparound () =
  let tr = Trace.create ~capacity:4 () in
  for seq = 1 to 6 do
    Trace.emit tr ~at_ns:seq (delivered seq)
  done;
  Alcotest.(check int) "length capped" 4 (Trace.length tr);
  let seqs =
    List.filter_map
      (fun e ->
        match e.Trace.event with
        | Event.Packet_delivered { seq; _ } -> Some seq
        | _ -> None)
      (Trace.entries tr)
  in
  Alcotest.(check (list int)) "oldest dropped, order kept" [ 3; 4; 5; 6 ] seqs;
  let folded = Trace.fold (fun acc _ -> acc + 1) 0 tr in
  Alcotest.(check int) "fold sees the same entries" 4 folded;
  let first = ref None in
  Trace.iter tr (fun e -> if !first = None then first := Some e.Trace.at_ns);
  Alcotest.(check (option int)) "iter starts at the oldest" (Some 3) !first

let test_trace_span () =
  let tr = Trace.create () in
  let clock = ref 0 in
  let now () = !clock in
  let result =
    Trace.span tr ~now ~name:"work" (fun () ->
        clock := 250;
        17)
  in
  Alcotest.(check int) "span returns f's result" 17 result;
  (match Trace.entries tr with
  | [ { event = Event.Span_begin { name = "work" }; _ };
      { event = Event.Span_end { name = "work"; elapsed_ns = 250 }; _ }
    ] ->
      ()
  | _ -> Alcotest.fail "expected matching Span_begin/Span_end");
  Trace.clear tr;
  (try
     Trace.span tr ~now ~name:"boom" (fun () -> failwith "inner") |> ignore
   with Failure _ -> ());
  match List.rev (Trace.entries tr) with
  | { event = Event.Span_end { name = "boom"; _ }; _ } :: _ -> ()
  | _ -> Alcotest.fail "span must close even when f raises"

(* --- Fig. 4-style end-to-end determinism ---------------------------------- *)

let test_scenario_snapshot_bytes_j1_j4 () =
  (* Down-scaled fig4 fleet: four scenario simulations, merged snapshot
     exported to JSON, sequential vs 4-worker pool. *)
  let module Scenario = Sw_attack.Scenario in
  let module Runner = Sw_runner.Runner in
  let module Pool = Sw_runner.Pool in
  let base = { Scenario.default with Scenario.duration = Sw_sim.Time.s 2 } in
  let specs =
    [
      ("sw/no-victim", { base with Scenario.victim = false });
      ("sw/victim", { base with Scenario.victim = true });
      ("base/no-victim", { base with Scenario.baseline = true; victim = false });
      ("base/victim", { base with Scenario.baseline = true; victim = true });
    ]
  in
  let jobs () =
    List.map
      (fun (key, spec) ->
        (key, fun () -> (Scenario.run spec).Scenario.metrics))
      specs
  in
  let export outcomes =
    Export.to_json_string (Snapshot.merge_all (Runner.successes outcomes))
  in
  let seq = export (Runner.map (jobs ())) in
  let par =
    export (Pool.with_pool ~workers:4 (fun pool -> Runner.map ~pool (jobs ())))
  in
  Alcotest.(check bool) "snapshot non-trivial" false
    (String.equal seq (Export.to_json_string Snapshot.empty));
  Alcotest.(check string) "merged snapshot bytes identical under -j 4" seq par

(* --- Profile ---------------------------------------------------------------- *)

(* An enabled timer is two clock reads and an add around the call: 1,000
   timed calls of a preallocated thunk allocate no minor words, so a traced
   run's words per event count the simulator, not its profiler. *)
let test_profile_time_allocates_nothing () =
  let p = Sw_obs.Profile.create ~enabled:true () in
  let tm = Sw_obs.Profile.timer p "engine.dispatch" in
  let f () = () in
  Sw_obs.Profile.time p tm f;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Sw_obs.Profile.time p tm f
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for 1,000 timed calls" 0. words;
  match Sw_obs.Profile.to_list p with
  | [ (_, _, calls) ] -> Alcotest.(check int) "every call counted" 1001 calls
  | _ -> Alcotest.fail "one timer expected"

let () =
  Alcotest.run "sw_obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "sum and gauge" `Quick test_sum_gauge;
          Alcotest.test_case "gauge observe_int" `Quick test_gauge_observe_int;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "path validation" `Quick test_path_validation;
        ] );
      ( "buckets",
        [
          Alcotest.test_case "bounds monotone" `Quick test_bucket_bounds_monotone;
          QCheck_alcotest.to_alcotest prop_bucket_index;
        ] );
      ("int_tbl", [ QCheck_alcotest.to_alcotest prop_int_tbl_order ]);
      ( "profile",
        [
          Alcotest.test_case "enabled time allocates nothing" `Quick
            test_profile_time_allocates_nothing;
        ] );
      ( "merge",
        [
          QCheck_alcotest.to_alcotest prop_snapshot_merge_partitions;
          Alcotest.test_case "kind mismatch rejected" `Quick
            test_merge_kind_mismatch;
        ] );
      ( "export",
        [
          Alcotest.test_case "shape" `Quick test_export_shape;
        ] );
      ( "trace",
        [
          Alcotest.test_case "lazy emission" `Quick
            test_trace_lazy_emission;
          Alcotest.test_case "order and wraparound" `Quick
            test_trace_order_and_wraparound;
          Alcotest.test_case "span" `Quick test_trace_span;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig4-style merged snapshot -j1 = -j4" `Slow
            test_scenario_snapshot_bytes_j1_j4;
        ] );
    ]
