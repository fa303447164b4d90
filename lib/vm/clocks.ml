module Time = Sw_sim.Time

type t = {
  tsc_hz : float;
  pit_hz : float;
  pit_reload : int;
}

let create ?(tsc_hz = 3.0e9) ?(pit_hz = 1_193_182.) ?(pit_reload = 4772) () =
  if tsc_hz <= 0. then invalid_arg "Clocks.create: tsc_hz must be positive";
  if pit_hz <= 0. then invalid_arg "Clocks.create: pit_hz must be positive";
  if pit_reload <= 0 then invalid_arg "Clocks.create: pit_reload must be positive";
  { tsc_hz; pit_hz; pit_reload }

(* [virt * rate] passes 2^62 long before virt leaves the int range, so both
   readings multiply in a function-local int64 expression (kept unboxed, no
   allocation) and divide back into int range: exactly the int64 clock's
   value, bit for bit. *)

let rdtsc t ~virt =
  (* floor(virt_s * tsc_hz); computed in integer arithmetic to stay exact
     across replicas: ticks = virt_ns * (tsc_hz / 1e9). With tsc_hz an
     integral number of kHz this is virt_ns * khz / 1e6. *)
  let khz = Int64.of_float (Float.round (t.tsc_hz /. 1e3)) in
  Int64.to_int (Int64.div (Int64.mul (Int64.of_int virt) khz) 1_000_000L)

let rtc_seconds _t ~virt = virt / 1_000_000_000

let pit_counter t ~virt =
  (* Ticks elapsed = floor(virt_s * pit_hz), again in exact integer form:
     the i8254 rate is an integral Hz value. *)
  let hz = Int64.of_float (Float.round t.pit_hz) in
  let ticks = Int64.div (Int64.mul (Int64.of_int virt) hz) 1_000_000_000L in
  let phase = Int64.to_int (Int64.rem ticks (Int64.of_int t.pit_reload)) in
  t.pit_reload - phase

let pit_interrupt_period t =
  Time.ns
    (int_of_float (Float.round (float_of_int t.pit_reload /. t.pit_hz *. 1e9)))
