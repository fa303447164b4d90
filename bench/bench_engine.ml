(* Scheduling-core micro-benchmark: events/sec through the public Engine API
   on the three workload shapes that dominate the experiments — pure-periodic
   timers (slices, heartbeats, Δd/Δn deliveries), a mixed stream with
   exponential jitter and a far-future tail that exercises the overflow
   tier, and a cancel-heavy stream (retransmission timers that almost always
   get cancelled).

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

(* Recorded floor (pure-periodic events/sec) for the @perf guard. The wheel
   engine measures 7-8M events/s on the dev container (the heap engine it
   replaced did ~3.6M); the guard trips below floor/5 = 1.4M. Update when
   the engine gets materially faster or slower on purpose. *)
let periodic_floor = 7_000_000.

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
      if !fired < n then ignore (Engine.schedule_after e period tick)
    in
    ignore (Engine.schedule_after e period tick)
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
        ignore (Engine.schedule_after e delay (fun () -> incr fired));
        ignore (Engine.schedule_after e period tick)
      end
    in
    ignore (Engine.schedule_after e period tick)
  done;
  Engine.run e;
  !fired

(* Each pop arms a victim timer and disarms it before it can fire, plus a
   late cancel on an already-fired event (which must be a no-op). *)
let cancel_heavy n =
  let e = Engine.create () in
  let fired = ref 0 in
  let last = ref None in
  let rec tick () =
    incr fired;
    (match !last with Some id -> Engine.cancel e id | None -> ());
    if !fired < n then begin
      let victim = Engine.schedule_after e (Time.us 20) (fun () -> ()) in
      let driver = Engine.schedule_after e (Time.us 10) tick in
      Engine.cancel e victim;
      last := Some driver
    end
  in
  ignore (Engine.schedule_after e (Time.us 10) tick);
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
  let cancels = measure "cancel-heavy" n cancel_heavy in
  let rows = [ periodic; mix; cancels ] in
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
