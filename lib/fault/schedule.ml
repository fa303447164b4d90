module Time = Sw_sim.Time
module Prng = Sw_sim.Prng

type spec = { at : Time.t; span : Time.t; fault : Fault.t }

type t = spec list

let empty = []

let at ?(span = Time.zero) time fault = { at = time; span; fault }

(* Stable order: (at, label, target) — insertion order breaks remaining
   ties, so equal schedules install identically however they were built. *)
let compare_spec a b =
  match Time.compare a.at b.at with
  | 0 -> (
      match String.compare (Fault.label a.fault) (Fault.label b.fault) with
      | 0 ->
          String.compare
            (Fault.target_string a.fault)
            (Fault.target_string b.fault)
      | c -> c)
  | c -> c

let sorted t = List.stable_sort compare_spec t

let validate t =
  List.iter
    (fun s ->
      if Time.compare s.at Time.zero < 0 then
        invalid_arg "Schedule: negative start";
      if Time.compare s.span Time.zero < 0 then
        invalid_arg "Schedule: negative span";
      Fault.validate s.fault)
    t

(* Seed-derived fault windows: an exponential(mean_gap) renewal process over
   [0, until), each arrival opening a window of exponential(mean_span)
   length whose fault is drawn by [make] from the same generator. The whole
   schedule is computed up front from the seed — the run itself draws
   nothing, so (seed, schedule) fully determine the trajectory. *)
let windows ~seed ~until ~mean_gap ~mean_span ~make =
  if Time.(mean_gap <= Time.zero) then
    invalid_arg "Schedule.windows: mean_gap must be positive";
  if Time.(mean_span <= Time.zero) then
    invalid_arg "Schedule.windows: mean_span must be positive";
  let rng = Prng.create seed in
  let draw_ns mean =
    int_of_float (Prng.exponential rng ~rate:(1. /. float_of_int mean))
  in
  let rec loop acc now =
    let start = Time.add now (draw_ns mean_gap) in
    if Time.(start >= until) then List.rev acc
    else
      let span = Time.max (Time.ns 1) (draw_ns mean_span) in
      loop ({ at = start; span; fault = make rng } :: acc) start
  in
  let t = loop [] Time.zero in
  validate t;
  t

let specs t = sorted t
