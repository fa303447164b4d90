(* Tests for sw_runner: the domain pool, crash isolation, progress events,
   parallel-vs-sequential determinism (results and aggregated JSON),
   cross-domain PRNG ownership, and the report JSON bytes. *)

module Pool = Sw_runner.Pool
module Runner = Sw_runner.Runner
module Report = Sw_runner.Report
module Prng = Sw_sim.Prng

(* --- Pool ---------------------------------------------------------------- *)

let test_pool_runs_all_tasks () =
  let n = 50 in
  let counter = Atomic.make 0 in
  Pool.with_pool ~workers:4 (fun pool ->
      let remaining = Atomic.make n in
      let m = Mutex.create () in
      let c = Condition.create () in
      for _ = 1 to n do
        Pool.submit pool (fun () ->
            Atomic.incr counter;
            if Atomic.fetch_and_add remaining (-1) = 1 then begin
              Mutex.lock m;
              Condition.broadcast c;
              Mutex.unlock m
            end)
      done;
      Mutex.lock m;
      while Atomic.get remaining > 0 do
        Condition.wait c m
      done;
      Mutex.unlock m);
  Alcotest.(check int) "all tasks ran" n (Atomic.get counter)

let test_pool_shutdown_drains () =
  let counter = Atomic.make 0 in
  let pool = Pool.create ~workers:2 () in
  for _ = 1 to 20 do
    Pool.submit pool (fun () -> Atomic.incr counter)
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "queued tasks ran before join" 20 (Atomic.get counter);
  Alcotest.(check bool) "submit after shutdown rejected" true
    (try
       Pool.submit pool (fun () -> ());
       false
     with Invalid_argument _ -> true)

(* A raising task is swallowed and counted: the one worker survives to run
   the next task, and the escape shows in [escaped_exceptions]. *)
let test_pool_counts_escapes () =
  let ran_after = Atomic.make false in
  let pool = Pool.create ~workers:1 () in
  Pool.submit pool (fun () -> failwith "escaped");
  Pool.submit pool (fun () -> Atomic.set ran_after true);
  Pool.shutdown pool;
  Alcotest.(check bool) "worker survived the raise" true (Atomic.get ran_after);
  Alcotest.(check int) "escape counted" 1 (Pool.escaped_exceptions pool)

(* Runner catches per job, so a raising job never reaches the pool's
   worker loop: the counter stays 0 and the failure is the job's. *)
let test_runner_escapes_nothing () =
  let pool = Pool.create ~workers:1 () in
  let out = Runner.map ~pool [ ("boom", fun () -> failwith "caught") ] in
  Pool.shutdown pool;
  Alcotest.(check int) "failure recorded" 1 (List.length (Runner.failures out));
  Alcotest.(check int) "nothing escaped" 0 (Pool.escaped_exceptions pool)

(* --- Runner semantics ----------------------------------------------------- *)

let int_jobs n = List.init n (fun i -> (Printf.sprintf "job%d" i, fun () -> i))

let test_map_order_stable () =
  Pool.with_pool ~workers:4 (fun pool ->
      let out = Runner.map ~pool (int_jobs 32) in
      Alcotest.(check (list int)) "submission order" (List.init 32 Fun.id)
        (Runner.successes out))

let test_crash_isolation () =
  let runs = Atomic.make 0 in
  let jobs =
    [
      ("ok", fun () -> 1);
      ( "boom",
        fun () ->
          Atomic.incr runs;
          failwith "simulated crash" );
      ("also-ok", fun () -> 3);
    ]
  in
  Pool.with_pool ~workers:2 (fun pool ->
      let out = Runner.map ~pool jobs in
      Alcotest.(check int) "the raising closure ran once" 1 (Atomic.get runs);
      Alcotest.(check (list int)) "other jobs unaffected" [ 1; 3 ]
        (Runner.successes out);
      match Runner.failures out with
      | [ f ] ->
          Alcotest.(check string) "failure names the job" "boom" f.Runner.key;
          Alcotest.(check string) "failure names the exception"
            "Failure(\"simulated crash\")" f.Runner.exn
      | fs -> Alcotest.failf "expected exactly 1 failure, got %d" (List.length fs))

let test_events_reported () =
  let events = ref [] in
  let jobs =
    [
      ("a", fun () -> ());
      ("b", fun () -> failwith "x");
    ]
  in
  Pool.with_pool ~workers:2 (fun pool ->
      ignore
        (Runner.map ~pool ~on_event:(fun e -> events := e :: !events) jobs));
  let finished =
    List.filter (function Runner.Finished _ -> true | _ -> false) !events
  in
  let failed =
    List.filter (function Runner.Failed _ -> true | _ -> false) !events
  in
  Alcotest.(check int) "one finish" 1 (List.length finished);
  Alcotest.(check int) "one failure" 1 (List.length failed);
  Alcotest.(check int) "one event per job" 2 (List.length !events)

(* --- Determinism: -j 1 and -j 4 agree, byte for byte ---------------------- *)

(* Pseudo-simulations: each job runs a PRNG-driven accumulation whose result
   depends only on the seed fixed in its thunk before dispatch. Cheap, but
   exercises exactly the contract real simulations rely on. *)
let sim_jobs =
  List.init 24 (fun i ->
      let seed = Int64.of_int (0x5EED + (i * 7919)) in
      ( Printf.sprintf "sim/%d" i,
        fun () ->
          let rng = Prng.create seed in
          let total = ref 0. in
          for _ = 1 to 500 do
            total := !total +. Prng.exponential rng ~rate:2.
          done;
          !total /. 500. ))

let json_of_outcomes outcomes =
  Report.to_string
    (Report.Obj
       [
         ( "merged",
           Report.Float
             (List.fold_left ( +. ) 0. (Runner.successes outcomes)) );
         ( "per_job",
           Report.List
             (List.map
                (function
                  | Ok x -> Report.Float x
                  | Error f -> Report.of_failure f)
                outcomes) );
       ])

let test_parallel_equals_sequential () =
  let sequential = Runner.map sim_jobs in
  let parallel =
    Pool.with_pool ~workers:4 (fun pool -> Runner.map ~pool sim_jobs)
  in
  (* Byte-identical aggregated JSON: the runner's output carries no
     wall-clock or scheduling artefacts. *)
  Alcotest.(check string) "aggregated JSON identical under -j 4"
    (json_of_outcomes sequential) (json_of_outcomes parallel);
  (* And a 1-worker pool also matches the inline path. *)
  let one_worker =
    Pool.with_pool ~workers:1 (fun pool -> Runner.map ~pool sim_jobs)
  in
  Alcotest.(check string) "1-worker pool matches inline"
    (json_of_outcomes sequential) (json_of_outcomes one_worker)

let test_experiment_jobs_deterministic () =
  (* The real Fig. 5 driver, smallest size: parallel and sequential collect
     to identical outcomes. *)
  let module Ft = Sw_experiments.File_transfer in
  let jobs () =
    Ft.jobs ~protocol:Ft.Http ~baseline:true ~size_bytes:1024 ~runs:3
  in
  let seq = Ft.collect (Runner.map (jobs ())) in
  let par =
    Pool.with_pool ~workers:3 (fun pool -> Runner.map ~pool (jobs ()))
    |> Ft.collect
  in
  Alcotest.(check (list (float 0.))) "per-run times identical" seq.Ft.runs
    par.Ft.runs;
  Alcotest.(check int) "divergences identical" seq.Ft.divergences
    par.Ft.divergences

(* --- PRNG cross-domain ownership ----------------------------------------- *)

let test_prng_sibling_splits_across_domains () =
  (* Two generators derived by [split] before dispatch must produce, when
     drawn concurrently on two domains, exactly the sequences they produce
     sequentially — i.e. sibling splits share no state. *)
  let draws = 10_000 in
  let sequence g = Array.init draws (fun _ -> Prng.float g) in
  let siblings () =
    let root = Prng.create 0xD0_0D_1EL in
    let g1 = Prng.split root in
    (g1, Prng.split root)
  in
  let expect1, expect2 =
    let g1, g2 = siblings () in
    (sequence g1, sequence g2)
  in
  let g1, g2 = siblings () in
  let d1 = Domain.spawn (fun () -> sequence g1) in
  let d2 = Domain.spawn (fun () -> sequence g2) in
  let got1 = Domain.join d1 and got2 = Domain.join d2 in
  Alcotest.(check bool) "domain 1 sequence unperturbed" true (expect1 = got1);
  Alcotest.(check bool) "domain 2 sequence unperturbed" true (expect2 = got2);
  Alcotest.(check bool) "siblings are independent streams" false
    (expect1 = expect2)

(* --- Report JSON ---------------------------------------------------------- *)

let test_report_json () =
  let json =
    Report.Obj
      [
        ("s", Report.String "a\"b\\c\nd");
        ("i", Report.Int (-3));
        ("f", Report.Float 1.5);
        ("nan", Report.Float Float.nan);
        ("l", Report.List [ Report.Bool true; Report.Null ]);
      ]
  in
  Alcotest.(check string) "escaping and shape"
    "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-3,\"f\":1.5,\"nan\":\"nan\",\"l\":[true,null]}"
    (Report.to_string json);
  (* Float serialisation must round-trip (it feeds byte-equality checks). *)
  List.iter
    (fun f ->
      match Report.to_string (Report.Float f) with
      | s when float_of_string s = f -> ()
      | s -> Alcotest.failf "%h serialised lossily as %s" f s)
    [ 0.1; 1. /. 3.; 1e-300; 123456.789; Float.pi ]

(* The failure object fig5's and quick's "failures" lists carry. *)
let test_failure_json () =
  match Runner.map [ ("fig5/http/base/1024B/run0", fun () -> failwith "x") ] with
  | [ Error f ] ->
      Alcotest.(check string) "failure bytes"
        "{\"key\":\"fig5/http/base/1024B/run0\",\"exn\":\"Failure(\\\"x\\\")\"}"
        (Report.to_string (Report.of_failure f))
  | _ -> Alcotest.fail "expected one failure"

let test_bench_file_shape () =
  let doc =
    Report.bench_file ~workers:4 ~wall_s:1.25
      ~timings:[ ("fig5", 1.25) ]
      ~experiments:[ ("fig5", Report.Obj [ ("rows", Report.List []) ]) ]
      ()
  in
  Alcotest.(check string) "document layout"
    "{\"schema\":\"stopwatch-bench/1\",\"workers\":4,\"experiments\":{\"fig5\":{\"rows\":[]}},\"timing\":{\"total_wall_s\":1.25,\"fig5\":1.25}}"
    (Report.to_string doc)

let () =
  Alcotest.run "sw_runner"
    [
      ( "pool",
        [
          Alcotest.test_case "runs all tasks" `Quick test_pool_runs_all_tasks;
          Alcotest.test_case "shutdown drains" `Quick test_pool_shutdown_drains;
          Alcotest.test_case "escaped exceptions counted" `Quick
            test_pool_counts_escapes;
          Alcotest.test_case "runner escapes nothing" `Quick
            test_runner_escapes_nothing;
        ] );
      ( "runner",
        [
          Alcotest.test_case "order stable" `Quick test_map_order_stable;
          Alcotest.test_case "crash isolation" `Quick test_crash_isolation;
          Alcotest.test_case "events reported" `Quick test_events_reported;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "-j 1 equals -j 4 (JSON bytes)" `Quick
            test_parallel_equals_sequential;
          Alcotest.test_case "fig5 jobs parallel = sequential" `Slow
            test_experiment_jobs_deterministic;
          Alcotest.test_case "prng sibling splits across domains" `Quick
            test_prng_sibling_splits_across_domains;
        ] );
      ( "report",
        [
          Alcotest.test_case "json emission" `Quick test_report_json;
          Alcotest.test_case "failure json" `Quick test_failure_json;
          Alcotest.test_case "bench file shape" `Quick test_bench_file_shape;
        ] );
    ]
