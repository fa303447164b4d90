(* Tests for the simulation substrate: time arithmetic, the event heap, the
   PRNG, the engine's ordering guarantees, and the statistics collectors. *)

module Time = Sw_sim.Time
module Heap = Sw_sim.Heap
module Prng = Sw_sim.Prng
module Engine = Sw_sim.Engine

let check_float = Alcotest.(check (float 1e-9))

(* --- Time --------------------------------------------------------------- *)

let test_time_units () =
  Alcotest.(check int) "us" 1_000 (Time.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Time.ms 1);
  Alcotest.(check int) "s" 1_000_000_000 (Time.s 1);
  Alcotest.(check int) "of_float_s" 1_500_000_000 (Time.of_float_s 1.5);
  check_float "to_float_ms" 1.5 (Time.to_float_ms (Time.us 1500))

let test_time_arith () =
  let a = Time.ms 5 and b = Time.ms 3 in
  Alcotest.(check int) "add" (Time.ms 8) (Time.add a b);
  Alcotest.(check int) "sub" (Time.ms 2) (Time.sub a b);
  Alcotest.(check int) "mul_int" (Time.ms 15) (Time.mul_int a 3);
  Alcotest.(check int) "div_int" (Time.ms 1) (Time.div_int b 3);
  Alcotest.(check int) "scale" (Time.ms 10) (Time.scale a 2.0);
  Alcotest.(check bool) "lt" true Time.(b < a);
  Alcotest.(check bool) "min" true (Time.equal b (Time.min a b));
  Alcotest.(check bool) "negative" true (Time.is_negative (Time.sub b a))

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Time.to_string (Time.ns 500));
  Alcotest.(check string) "ms" "1.500ms" (Time.to_string (Time.us 1500))

(* --- Heap --------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iteri
    (fun i k -> Heap.push h ~key:k ~seq:i i)
    [ 5; 1; 4; 1; 3 ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | None -> ()
    | Some (k, _, _) ->
        order := k :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 1; 3; 4; 5 ] (List.rev !order)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~key:7 ~seq:i i
  done;
  let out = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | None -> ()
    | Some (_, _, v) ->
        out := v :: !out;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !out)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i ()) keys;
      let rec drain last =
        match Heap.pop_min h with
        | None -> true
        | Some (k, _, ()) -> last <= k && drain k
      in
      drain min_int)

(* --- Prng --------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Prng.float a) (Prng.float b)
  done

let test_prng_split_independent () =
  let root = Prng.create 42L in
  let a = Prng.split root in
  let b = Prng.split root in
  Alcotest.(check bool) "split streams differ" true
    (Prng.float a <> Prng.float b)

let test_prng_float_range () =
  let rng = Prng.create 7L in
  for _ = 1 to 10_000 do
    let x = Prng.float rng in
    if x < 0. || x >= 1. then Alcotest.fail "float out of [0,1)"
  done

let test_prng_exponential_mean () =
  let rng = Prng.create 9L in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential rng ~rate:2.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.02 then
    Alcotest.failf "exponential mean %f too far from 0.5" mean

let prop_prng_int_bound =
  QCheck.Test.make ~name:"Prng.int respects bound" ~count:500
    QCheck.(int_range 1 1_000_000)
    (fun n ->
      let rng = Prng.create (Int64.of_int n) in
      let x = Prng.int rng n in
      x >= 0 && x < n)

(* --- Engine ------------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e (Time.ms 2) (fun () -> log := 2 :: !log);
  Engine.schedule_at e (Time.ms 1) (fun () -> log := 1 :: !log);
  Engine.schedule_at e (Time.ms 3) (fun () -> log := 3 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" (Time.ms 3) (Engine.now e)

let test_engine_same_instant_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    Engine.schedule_at e (Time.ms 1) (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule_at e (Time.ms i) (fun () -> incr count)
  done;
  Engine.run ~until:(Time.ms 5) e;
  Alcotest.(check int) "events at <= until fire" 5 !count;
  Alcotest.(check int) "clock parked at until" (Time.ms 5) (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest fire" 10 !count

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.schedule_at e (Time.ms 5) (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past scheduling" (Invalid_argument "x") (fun () ->
      try Engine.schedule_at e (Time.ms 1) (fun () -> ()) with
      | Invalid_argument _ -> raise (Invalid_argument "x"))

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e (Time.ms 1) (fun () ->
      log := "outer" :: !log;
      Engine.schedule_after e (Time.ms 1) (fun () -> log := "inner" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log)

let test_engine_far_future () =
  (* Events beyond the wheel's ~2.4 h span take the overflow tier; ordering
     and the FIFO tiebreak must hold across tiers, including an equal-key
     pair where one event was filed far (overflow) and the other near. *)
  let e = Engine.create () in
  let log = ref [] in
  let far = Time.s 10_000 in
  Engine.schedule_at e far (fun () -> log := "far0" :: !log);
  Engine.schedule_at e (Time.ms 1) (fun () -> log := "near" :: !log);
  Engine.schedule_at e (Time.ms 1) (fun () ->
      Engine.schedule_at e far (fun () -> log := "far1" :: !log));
  Engine.run e;
  Alcotest.(check (list string))
    "across tiers" [ "near"; "far0"; "far1" ] (List.rev !log);
  Alcotest.(check int) "clock at far event" far (Engine.now e)

let test_engine_span_boundary () =
  (* The wheel files keys in [horizon, horizon + span); an event exactly AT
     the boundary takes the overflow tier. Regression: the boundary pair
     must still fire in (time, seq) order — including a same-instant pair
     split across the tiers' re-injection. *)
  let span = 1 lsl 43 in
  let e = Engine.create () in
  let log = ref [] in
  let at t tag = Engine.schedule_at e t (fun () -> log := tag :: !log) in
  at (span - 1) "in-span";
  at span "boundary0";
  at span "boundary1";
  at (span + 1) "beyond";
  Engine.run e;
  Alcotest.(check (list string))
    "span-boundary order"
    [ "in-span"; "boundary0"; "boundary1"; "beyond" ]
    (List.rev !log);
  Alcotest.(check int) "clock" (span + 1) (Engine.now e)

let test_engine_park_advances_wheel () =
  (* Shard barriers park an idle engine at every window end (run ~until on
     an empty queue). The wheel horizon must follow the clock: an event
     scheduled after a long idle park, within ~2.4 h of *now* but beyond
     the original span, files and fires normally, and same-instant FIFO
     still holds. *)
  let e = Engine.create () in
  (* Thousands of empty windows, as a conductor would drive them. *)
  for i = 1 to 1000 do
    Engine.run ~until:(Time.ms i) e
  done;
  Engine.run ~until:(Time.s 1000) e;
  Alcotest.(check int) "parked" (Time.s 1000) (Engine.now e);
  let log = ref [] in
  let at t tag = Engine.schedule_at e t (fun () -> log := tag :: !log) in
  (* 9000 s is beyond the span as seen from 0, inside it as seen from
     1000 s. *)
  at (Time.s 9000) "a0";
  at (Time.s 9000) "a1";
  at (Time.s 9009) "b";
  Engine.run e;
  Alcotest.(check (list string)) "post-park order" [ "a0"; "a1"; "b" ] (List.rev !log);
  Alcotest.(check int) "clock" (Time.s 9009) (Engine.now e)

let test_engine_depth_gauge () =
  (* sim.queue.depth is a high-watermark over the live count, kept accurate
     through schedule and fire. *)
  let e = Engine.create () in
  let depth () =
    Metric.gauge (Sw_obs.Registry.snapshot (Engine.metrics e)) "sim.queue.depth"
  in
  for i = 1 to 5 do
    Engine.schedule_at e (Time.ms i) (fun () -> ())
  done;
  Alcotest.(check (float 0.)) "peak after schedules" 5. (depth ());
  Engine.run e;
  Alcotest.(check (float 0.)) "watermark survives drain" 5. (depth ());
  Alcotest.(check int) "drained" 0 (Engine.pending e)

(* --- Event kind handles --- *)

let kind_paths e name =
  let prefix = "sim.events." ^ name ^ "." in
  List.filter_map
    (fun (path, _) ->
      if String.starts_with ~prefix path then Some path else None)
    (Sw_obs.Snapshot.to_list (Sw_obs.Registry.snapshot (Engine.metrics e)))

let scheduled e name =
  Metric.counter
    (Sw_obs.Registry.snapshot (Engine.metrics e))
    ("sim.events." ^ name ^ ".scheduled")

let schedule_n e kind n =
  for i = 1 to n do
    Engine.schedule_after ~kind e (Time.us i) (fun () -> ())
  done

let test_kind_unscheduled_exports_nothing () =
  let e = Engine.create () in
  let _idle = Engine.kind e "idle" in
  let busy = Engine.kind e "busy" in
  schedule_n e busy 2;
  Engine.run e;
  Alcotest.(check (list string)) "no metric for a kind never scheduled" []
    (kind_paths e "idle");
  Alcotest.(check (list string)) "a scheduled kind registers both"
    [ "sim.events.busy.delay_ns"; "sim.events.busy.scheduled" ]
    (kind_paths e "busy")

let test_kind_same_name_shares_counter () =
  let e = Engine.create () in
  let a = Engine.kind e "twin" and b = Engine.kind e "twin" in
  schedule_n e a 2;
  schedule_n e b 3;
  Alcotest.(check int) "both handles count into one counter" 5
    (scheduled e "twin");
  Alcotest.(check int) "and one delay histogram" 5
    (Metric.histogram
       (Sw_obs.Registry.snapshot (Engine.metrics e))
       "sim.events.twin.delay_ns")
      .count

(* A checkpoint marshals an engine with the components holding its kind
   handles; the restored handles must count into the restored registry. *)
let test_kind_survives_marshal () =
  let e = Engine.create () in
  let registered = Engine.kind e "carried" in
  let fresh = Engine.kind e "fresh" in
  schedule_n e registered 2;
  let e', registered', fresh' =
    (Marshal.from_string
       (Marshal.to_string (e, registered, fresh) [ Marshal.Closures ])
       0
      : Engine.t * Engine.kind * Engine.kind)
  in
  schedule_n e' registered' 3;
  schedule_n e' fresh' 1;
  Alcotest.(check int) "restored engine keeps counting" 5
    (scheduled e' "carried");
  Alcotest.(check int) "a handle first used after restore registers there" 1
    (scheduled e' "fresh");
  Alcotest.(check int) "the original is untouched" 2 (scheduled e "carried");
  Alcotest.(check (list string)) "and never saw the late kind" []
    (kind_paths e "fresh")

(* Model test: the wheel + overflow engine against a naive sorted-list
   scheduler, over random interleavings of schedule, a run to the next
   due instant, and bounded run. Firing order, final clock and pending
   count must agree exactly.
   [key now tag payload] is the instant a schedule op files at and [limit
   now payload] a bounded run's limit. *)
let engine_matches_model ~key ~limit ops =
  let e = Engine.create () in
  let elog = ref [] and mlog = ref [] in
  let mnow = ref 0 in
  (* Model queue: (key, id) pending, FIFO by id on equal keys since ids
     are issued in schedule order. *)
  let mq = ref [] in
  let next_id = ref 0 in
  let mmin () =
    List.fold_left
      (fun acc (k, i) ->
        match acc with
        | None -> Some (k, i)
        | Some (k', i') ->
            if k < k' || (k = k' && i < i') then Some (k, i) else acc)
      None !mq
  in
  (* Fire the model's earliest event when it is due by [lim]. *)
  let mpop lim =
    match mmin () with
    | Some (k, i) when k <= lim ->
        mq := List.filter (fun (_, j) -> j <> i) !mq;
        mnow := k;
        mlog := i :: !mlog;
        true
    | _ -> false
  in
  List.iter
    (fun (tag, payload) ->
      match tag with
      | 0 | 1 ->
          let at = key (Engine.now e) tag payload in
          let id = !next_id in
          incr next_id;
          Engine.schedule_at e at (fun () -> elog := id :: !elog);
          mq := (at, id) :: !mq
      | 2 -> (
          (* Run to the model's next due instant. *)
          match mmin () with
          | Some (k, _) ->
              Engine.run ~until:k e;
              while mpop k do () done
          | None -> ())
      | _ ->
          let lim = limit (Engine.now e) payload in
          Engine.run ~until:lim e;
          while mpop lim do () done;
          if lim > !mnow then mnow := lim)
    ops;
  Engine.run e;
  while mpop max_int do () done;
  List.rev !elog = List.rev !mlog && Engine.pending e = 0 && Engine.now e = !mnow

let model_ops =
  QCheck.(list_of_size Gen.(int_range 1 120) (pair (int_bound 4) (int_bound 1_000_000)))

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine matches sorted-list model" ~count:120 model_ops
    (engine_matches_model
       ~key:(fun now tag payload ->
         (* Near schedule: up to 2 ms out. Far schedule: whole seconds, up
            to 10,000 s so the overflow tier (past 2^43 ns, ~8796 s)
            participates. *)
         let delay =
           if tag = 1 && payload mod 7 = 0 then Time.s (1 + (payload mod 10_000))
           else Time.ns (payload mod 2_000_000)
         in
         Time.add now delay)
       ~limit:(fun now payload -> Time.add now (Time.ns payload)))

(* An instant on or next to a coarse wheel boundary: a multiple of level
   l's slot width 2^(13 + 5l) ns (l = 1..5, 2^18 ns up to 2^38 ns ≈ 275 s),
   one to three widths past [now]'s, nudged by -1 granule (8192 ns), -1 ns,
   0, +1 ns or +1 granule, and never before [now]. *)
let near_boundary now payload =
  let l = 1 + (payload mod 5) in
  let w = 1 lsl (13 + (5 * l)) in
  let b = ((now / w) + 1 + (payload / 5 mod 3)) * w in
  let nudge = [| -8192; -1; 0; 1; 8192 |].(payload / 15 mod 5) in
  Stdlib.max now (b + nudge)

(* The same model with keys and run limits on level boundaries, where a
   refill's horizon lands on nested boundaries and must cascade what
   starts there. Half the schedules stay near (up to 2 ms out) so level-0
   traffic interleaves with the cascades. *)
let prop_engine_matches_model_on_boundaries =
  QCheck.Test.make ~name:"engine matches sorted-list model on level boundaries"
    ~count:200 model_ops
    (engine_matches_model
       ~key:(fun now tag payload ->
         if tag = 0 && payload land 1 = 0 then Time.add now (Time.ns (payload mod 2_000_000))
         else near_boundary now payload)
       ~limit:(fun now payload ->
         if payload land 1 = 0 then near_boundary now (payload / 2)
         else Time.add now (Time.ns payload)))

(* --- Samples --------------------------------------------------------------- *)

let test_samples_percentiles () =
  let s = Sw_sim.Samples.create () in
  for i = 1 to 100 do
    Sw_sim.Samples.add s (float_of_int i)
  done;
  check_float "median" 50.5 (Sw_sim.Samples.percentile s 0.5);
  check_float "p0" 1. (Sw_sim.Samples.percentile s 0.);
  check_float "p100" 100. (Sw_sim.Samples.percentile s 1.)

(* --- Conductor ----------------------------------------------------------- *)

module Conductor = Sw_sim.Conductor

(* A conductor whose every pair shares one lookahead bound. *)
let uniform_conductor lookahead engines =
  let n = Array.length engines in
  Conductor.create ~matrix:(Array.make_matrix n n lookahead) engines

let test_conductor_validation () =
  Alcotest.check_raises "no shards"
    (Invalid_argument "Conductor.create: no shards") (fun () ->
      ignore (uniform_conductor (Time.ms 1) [||]));
  Alcotest.check_raises "zero lookahead"
    (Invalid_argument
       "Conductor.create: lookahead matrix entries must be positive off the \
        diagonal")
    (fun () ->
      ignore
        (uniform_conductor Time.zero [| Engine.create (); Engine.create () |]));
  (* A single shard never windows, so any lookahead is fine. *)
  ignore (uniform_conductor Time.zero [| Engine.create () |])

let test_conductor_matrix_validation () =
  let engines () = [| Engine.create (); Engine.create () |] in
  Alcotest.check_raises "wrong shape"
    (Invalid_argument "Conductor.create: lookahead matrix must be n x n")
    (fun () ->
      ignore (Conductor.create ~matrix:[| [| Time.ms 1 |] |] (engines ())));
  Alcotest.check_raises "non-positive off-diagonal"
    (Invalid_argument
       "Conductor.create: lookahead matrix entries must be positive off the \
        diagonal")
    (fun () ->
      ignore
        (Conductor.create
           ~matrix:
             [| [| Time.zero; Time.ms 1 |]; [| Time.zero; Time.zero |] |]
           (engines ())));
  (* Asymmetric entries are the point of the matrix; the diagonal is unused
     and may be anything. *)
  ignore
    (Conductor.create
       ~matrix:[| [| Time.zero; Time.ms 2 |]; [| Time.us 300; Time.zero |] |]
       (engines ()))

(* The violation report must name the offending pair and both instants —
   that is what makes a late-installed fast link debuggable. *)
let test_conductor_post_violation_names_pair () =
  let engines = [| Engine.create (); Engine.create () |] in
  let c = uniform_conductor (Time.ms 1) engines in
  let message = ref "" in
  Engine.schedule_at engines.(0) (Time.us 100) (fun () ->
      try Conductor.post c ~src:0 ~dst:1 ~at:(Time.us 500) ignore
      with Invalid_argument m -> message := m);
  Conductor.run ~workers:1 c ~until:(Time.ms 1);
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S mentions %S" !message needle)
        true (contains !message needle))
    [ "shard 0 -> shard 1"; "arrival 500.000us"; "window end 1.000ms" ]

(* Shard 0's whole registry, [sim.*] included: the conductor's rounds and
   exchange counts live there, and no wall-clock value may. *)
let registry_bytes engines =
  Sw_obs.Export.to_json_string
    (Sw_obs.Registry.snapshot (Engine.metrics engines.(0)))

(* Every worker count from 2 to [shards + 1] (clamped to [shards]) gives
   the one-worker run's firing logs, exchange count, events fired, parked
   clocks and shard-0 registry bytes. *)
let check_worker_counts ~shards build =
  let logs_1, exch_1, fired_1, now_1, reg_1 = build ~workers:1 in
  Alcotest.(check bool) "some cross-shard traffic" true (exch_1 > 0);
  for workers = 2 to shards + 1 do
    let logs, exch, fired, now, reg = build ~workers in
    let check what = Printf.sprintf "%d workers: %s" workers what in
    Alcotest.(check int) (check "messages exchanged") exch_1 exch;
    Alcotest.(check (array int)) (check "events fired per shard") fired_1 fired;
    Alcotest.(check (array int)) (check "clocks parked") now_1 now;
    Alcotest.(check string) (check "shard 0 registry") reg_1 reg;
    for i = 0 to shards - 1 do
      Alcotest.(check (list (pair int string)))
        (check (Printf.sprintf "shard %d firing order" i))
        logs_1.(i) logs.(i)
    done
  done

(* The every-worker-count contract again, under an asymmetric per-pair
   matrix: each direction posts at its own bound, windows differ per pair,
   and every worker block split must still reproduce the one-worker firing
   order exactly. *)
let test_conductor_matrix_worker_counts () =
  let n = 3 in
  let matrix =
    [|
      [| Time.zero; Time.us 200; Time.ms 5 |];
      [| Time.ms 2; Time.zero; Time.us 700 |];
      [| Time.us 400; Time.ms 1; Time.zero |];
    |]
  in
  let horizon = Time.ms 30 in
  let build ~workers =
    let engines = Array.init n (fun _ -> Engine.create ()) in
    let c = Conductor.create ~matrix engines in
    let logs = Array.make n [] in
    let rng = Prng.create 0xA51DE5L in
    for src = 0 to n - 1 do
      for k = 0 to 29 do
        let at = Time.us (10 + Prng.int rng 29_000) in
        let tag = Printf.sprintf "s%de%d" src k in
        Engine.schedule_at engines.(src) at (fun () ->
            logs.(src) <- (Engine.now engines.(src), tag) :: logs.(src);
            if k mod 2 = 0 then begin
              let dst = (src + 1 + (k mod (n - 1))) mod n in
              let arrival =
                Time.add (Engine.now engines.(src)) matrix.(src).(dst)
              in
              Conductor.post c ~src ~dst ~at:arrival (fun () ->
                  logs.(dst) <-
                    (Engine.now engines.(dst), tag ^ "x") :: logs.(dst))
            end)
      done
    done;
    Conductor.run ~workers c ~until:horizon;
    ( logs,
      Conductor.exchanged c,
      Array.map Engine.fired engines,
      Array.map Engine.now engines,
      registry_bytes engines )
  in
  check_worker_counts ~shards:n build

(* Messages from both shards landing at the same destination instant must
   fire in (arrival, source shard, source sequence) order, regardless of
   which shard ran its window first. *)
let test_conductor_exchange_order () =
  let engines = [| Engine.create (); Engine.create () |] in
  let c = uniform_conductor (Time.ms 1) engines in
  let log = ref [] in
  let post_from src tags =
    Engine.schedule_at engines.(src) (Time.us 500) (fun () ->
        List.iter
          (fun tag ->
            Conductor.post c ~src ~dst:0 ~at:(Time.ms 2) (fun () ->
                log := tag :: !log))
          tags)
  in
  (* Shard 1 posts before shard 0 in wall order (one worker runs shard 0
     first, but the sort must not care). *)
  post_from 1 [ "b0"; "b1" ];
  post_from 0 [ "a0"; "a1" ];
  Conductor.run ~workers:1 c ~until:(Time.ms 3);
  Alcotest.(check (list string)) "exchange total order"
    [ "a0"; "a1"; "b0"; "b1" ] (List.rev !log);
  Alcotest.(check int) "exchanged" 4 (Conductor.exchanged c);
  Alcotest.(check int) "clock" (Time.ms 3) (Engine.now engines.(0))

let test_conductor_post_lookahead_violation () =
  let engines = [| Engine.create (); Engine.create () |] in
  let c = uniform_conductor (Time.ms 1) engines in
  let violated = ref false in
  Engine.schedule_at engines.(0) (Time.us 100) (fun () ->
      match Conductor.post c ~src:0 ~dst:1 ~at:(Time.us 500) ignore with
      | () -> ()
      | exception Invalid_argument _ -> violated := true);
  Conductor.run ~workers:1 c ~until:(Time.ms 1);
  Alcotest.(check bool) "post inside the window rejected" true !violated

(* The heart of the determinism contract: a web of cross-shard traffic
   fires in exactly the same order whatever the worker count. Event plans
   are drawn up front from a seed; handlers touch only their own shard's
   log cell, so a multi-worker run is race-free and any divergence is a
   protocol bug, not a test artifact. The fixture stops at each [(until,
   workers)] of [cuts] before running on to the horizon with [workers];
   with [fail_on], a handler on that shard raises [Shard_failed] at 5 ms. *)
let conductor_lookahead = Time.ms 1
let conductor_horizon = Time.ms 40

exception Shard_failed of int

let run_conductor_fixture ?(cuts = []) ?fail_on ~workers () =
  let n = 4 in
  let lookahead = conductor_lookahead in
  let engines = Array.init n (fun _ -> Engine.create ()) in
  let c = uniform_conductor lookahead engines in
  let logs = Array.make n [] in
  let rng = Prng.create 0xC0D0C7L in
  for src = 0 to n - 1 do
    for k = 0 to 39 do
      let at = Time.us (10 + Prng.int rng 39_000) in
      let tag = Printf.sprintf "s%de%d" src k in
      Engine.schedule_at engines.(src) at (fun () ->
          logs.(src) <- (Engine.now engines.(src), tag) :: logs.(src);
          if k mod 2 = 0 then begin
            let dst = (src + 1 + (k mod (n - 1))) mod n in
            let arrival = Time.add (Engine.now engines.(src)) lookahead in
            Conductor.post c ~src ~dst ~at:arrival (fun () ->
                logs.(dst) <-
                  (Engine.now engines.(dst), tag ^ "x") :: logs.(dst))
          end)
    done
  done;
  Option.iter
    (fun i ->
      Engine.schedule_at engines.(i) (Time.ms 5) (fun () ->
          raise (Shard_failed i)))
    fail_on;
  List.iter (fun (until, workers) -> Conductor.run ~workers c ~until) cuts;
  Conductor.run ~workers c ~until:conductor_horizon;
  let fired = Array.map Engine.fired engines in
  ( logs,
    Conductor.exchanged c,
    fired,
    Array.map Engine.now engines,
    registry_bytes engines )

let test_conductor_worker_counts () =
  check_worker_counts ~shards:4 (fun ~workers -> run_conductor_fixture ~workers ())

(* A raising handler surfaces from [run] as the same exception, and [run]
   returns instead of leaving a worker waiting at the barrier. On 2 workers
   of 4 shards, shard 3 is the second shard of the spawned worker's block
   and shard 1 the second of the main domain's. *)
let test_conductor_handler_failure () =
  List.iter
    (fun (workers, shard) ->
      Alcotest.check_raises
        (Printf.sprintf "%d workers, shard %d raises" workers shard)
        (Shard_failed shard)
        (fun () -> ignore (run_conductor_fixture ~fail_on:shard ~workers ())))
    [ (2, 3); (2, 1); (1, 3); (1, 1) ]

(* Stopping and resuming is invisible: 1-4 intermediate [run] calls, each
   with its own worker count, give the straight one-worker run's firing
   logs, exchange count and shard-0 registry bytes. Cuts sit on the round
   grid (multiples of the lookahead): a [run] that stops off the grid caps
   its last window there and so adds a round, which [sim.shard.windows]
   rightly counts. *)
let prop_conductor_split_runs =
  let steps = conductor_horizon / conductor_lookahead in
  let straight = lazy (run_conductor_fixture ~workers:1 ()) in
  QCheck.Test.make ~name:"split runs equal a straight run" ~count:20
    QCheck.(
      pair
        (list_of_size
           Gen.(int_range 1 4)
           (pair (int_range 1 steps) (int_range 1 5)))
        (int_range 1 5))
    (fun (ks, workers) ->
      let cuts =
        List.map
          (fun (k, w) -> (Time.mul_int conductor_lookahead k, w))
          (List.sort compare ks)
      in
      let logs, exch, _, _, reg = Lazy.force straight in
      let logs', exch', _, _, reg' =
        run_conductor_fixture ~cuts ~workers ()
      in
      logs' = logs && exch' = exch && reg' = reg)

let () =
  Alcotest.run "sw_sim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
          Alcotest.test_case "pretty-printing" `Quick test_time_pp;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          QCheck_alcotest.to_alcotest prop_heap_sorted;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          QCheck_alcotest.to_alcotest prop_prng_int_bound;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "same-instant fifo" `Quick test_engine_same_instant_fifo;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
          Alcotest.test_case "far-future overflow tier" `Quick
            test_engine_far_future;
          Alcotest.test_case "span boundary across tiers" `Quick
            test_engine_span_boundary;
          Alcotest.test_case "park advances wheel horizon" `Quick
            test_engine_park_advances_wheel;
          Alcotest.test_case "queue depth gauge" `Quick test_engine_depth_gauge;
          Alcotest.test_case "unscheduled kind exports nothing" `Quick
            test_kind_unscheduled_exports_nothing;
          Alcotest.test_case "same-name kinds share a counter" `Quick
            test_kind_same_name_shares_counter;
          Alcotest.test_case "kind handles survive Marshal" `Quick
            test_kind_survives_marshal;
          QCheck_alcotest.to_alcotest prop_engine_matches_model;
          QCheck_alcotest.to_alcotest prop_engine_matches_model_on_boundaries;
        ] );
      ( "collectors",
        [
          Alcotest.test_case "samples percentiles" `Quick test_samples_percentiles;
        ] );
      ( "conductor",
        [
          Alcotest.test_case "creation validation" `Quick
            test_conductor_validation;
          Alcotest.test_case "matrix validation" `Quick
            test_conductor_matrix_validation;
          Alcotest.test_case "violation names the pair" `Quick
            test_conductor_post_violation_names_pair;
          Alcotest.test_case "exchange total order" `Quick
            test_conductor_exchange_order;
          Alcotest.test_case "post inside window rejected" `Quick
            test_conductor_post_lookahead_violation;
          Alcotest.test_case "worker counts agree" `Quick
            test_conductor_worker_counts;
          Alcotest.test_case "matrix worker counts agree" `Quick
            test_conductor_matrix_worker_counts;
          Alcotest.test_case "handler failure re-raised" `Quick
            test_conductor_handler_failure;
          QCheck_alcotest.to_alcotest prop_conductor_split_runs;
        ] );
    ]
