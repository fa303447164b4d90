(* Scheduling-core micro-benchmark: events/sec through the public Engine API
   on the three workload shapes that dominate the experiments — pure-periodic
   timers (slices, heartbeats, Δd/Δn deliveries), a mixed stream with
   exponential jitter and a far-future tail that exercises the overflow
   tier, and a sparse stream (about a hundred timers with periods from
   0.1 to 10 ms, the shape of an unreplicated KV service).

   Throughput is wall-clock dependent, so the numbers land in the
   non-deterministic "perf" object of BENCH_results.json (next to "timing"),
   never under "experiments". The @perf alias runs this in -quick form as a
   coarse regression guard: it only fails when pure-periodic throughput
   drops more than 5x below the recorded floor, a margin wide enough to
   survive machine-to-machine variance while still catching an accidental
   return to per-event O(log n) + allocation costs. *)

module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Prng = Sw_sim.Prng
module Report = Sw_runner.Report

(* Recorded floor (pure-periodic events/sec) for the @perf guard: the
   median of ten full-form runs on a shared 2-vCPU x86-64 host with OCaml
   5.1.1, which spread over 7.2-11.4M events/s with the event-path
   libraries compiled -inline 200 (5.4-8.3M without it; the heap engine the
   wheel replaced did ~3.6M). The guard trips below floor/5 = 1.6M. Update
   when the engine gets materially faster or slower on purpose. *)
let periodic_floor = 8_000_000.

let timers = 1024

(* Uniform periods in the range the experiments actually schedule: 200us VM
   slices, 10-100us device completions, heartbeats. *)
let periods = [| Time.us 10; Time.us 50; Time.us 100; Time.us 200 |]

(* [n] self-rescheduling timer pops across [timers] periodic timers: the
   workload where a wheel's O(1) insert beats a binary heap. *)
let pure_periodic n =
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 0 to timers - 1 do
    let period = periods.(i mod Array.length periods) in
    let rec tick () =
      incr fired;
      if !fired < n then Engine.schedule_after e period tick
    in
    Engine.schedule_after e period tick
  done;
  Engine.run e;
  !fired

(* Periodic backbone plus one exponential one-shot per pop, with every 64th
   one-shot landing ~30 simulated seconds out so the far-future overflow
   tier stays on the measured path. *)
let mixed n =
  let e = Engine.create () in
  let rng = Engine.rng e in
  let fired = ref 0 in
  let shots = ref 0 in
  for i = 0 to timers - 1 do
    let period = periods.(i mod Array.length periods) in
    let rec tick () =
      incr fired;
      if !fired < n then begin
        incr shots;
        let delay =
          if !shots mod 64 = 0 then Time.s 30
          else Time.of_float_ms (Prng.exponential rng ~rate:0.5)
        in
        Engine.schedule_after e delay (fun () -> incr fired);
        Engine.schedule_after e period tick
      end
    in
    Engine.schedule_after e period tick
  done;
  Engine.run e;
  !fired

(* [sparse_timers] self-rescheduling timers, periods spread geometrically
   over 0.1-10 ms: few events per slot, most of them filed above level 0. *)
let sparse_timers = 100

let sparse n =
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 0 to sparse_timers - 1 do
    let period =
      Time.of_float_ms
        (0.1 *. (100. ** (float_of_int i /. float_of_int (sparse_timers - 1))))
    in
    let rec tick () =
      incr fired;
      if !fired < n then Engine.schedule_after e period tick
    in
    Engine.schedule_after e period tick
  done;
  Engine.run e;
  !fired

let measure name n run =
  (* A small warm-up run keeps allocator/GC start-up noise out of the
     measured window. *)
  ignore (run (n / 20));
  let t0 = Sw_obs.Profile.now_ns () in
  let fired = run n in
  let wall = float_of_int (Sw_obs.Profile.now_ns () - t0) /. 1e9 in
  let eps = float_of_int fired /. wall in
  Printf.printf "  %-13s %9d events  %7.3f s  %11.0f events/s\n%!" name fired
    wall eps;
  (name, fired, wall, eps)

let run ~quick () =
  let n = if quick then 400_000 else 4_000_000 in
  Printf.printf "Engine micro-benchmark (%d events per workload):\n%!" n;
  (* Explicit lets force left-to-right evaluation (and output) order. *)
  let periodic = measure "pure-periodic" n pure_periodic in
  let mix = measure "mixed" n mixed in
  let sparse = measure "sparse" n sparse in
  let rows = [ periodic; mix; sparse ] in
  List.iter
    (fun (name, fired, wall, eps) ->
      Bench_report.add_perf name
        (Report.Obj
           [
             ("events", Report.Int fired);
             ("wall_s", Report.Float wall);
             ("events_per_s", Report.Float eps);
           ]))
    rows;
  let _, _, _, periodic_eps = List.hd rows in
  if periodic_eps *. 5. < periodic_floor then begin
    Printf.eprintf
      "PERF REGRESSION: pure-periodic %.0f events/s is more than 5x below \
       the recorded floor of %.0f events/s\n%!"
      periodic_eps periodic_floor;
    exit 1
  end
