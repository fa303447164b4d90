module Time = Sw_sim.Time
module Prng = Sw_sim.Prng

type t =
  | Constant of { rate_per_s : float }
  | Poisson of { rate_per_s : float }
  | Diurnal of { base_per_s : float; amplitude : float; period : Time.t }
  | Flash of {
      base_per_s : float;
      peak_per_s : float;
      at : Time.t;
      ramp : Time.t;
      hold : Time.t;
    }
  | Replay of { points : (Time.t * float) list }

let pi = 4. *. atan 1.

let validate = function
  | Constant { rate_per_s } | Poisson { rate_per_s } ->
      if rate_per_s < 0. then invalid_arg "Arrival: negative rate"
  | Diurnal { base_per_s; amplitude; period } ->
      if base_per_s < 0. then invalid_arg "Arrival: negative base rate";
      if amplitude < 0. || amplitude > 1. then
        invalid_arg "Arrival: amplitude outside [0, 1]";
      if Time.compare period Time.zero <= 0 then
        invalid_arg "Arrival: non-positive period"
  | Flash { base_per_s; peak_per_s; at; ramp; hold } ->
      if base_per_s < 0. then invalid_arg "Arrival: negative base rate";
      if peak_per_s < base_per_s then invalid_arg "Arrival: peak below base";
      if Time.is_negative at || Time.is_negative ramp || Time.is_negative hold
      then invalid_arg "Arrival: negative flash span"
  | Replay { points } ->
      let rec go = function
        | [] -> ()
        | (t, r) :: rest ->
            if Time.is_negative t then invalid_arg "Arrival: negative instant";
            if r < 0. then invalid_arg "Arrival: negative rate";
            (match rest with
            | (t', _) :: _ when Time.compare t' t <= 0 ->
                invalid_arg "Arrival: replay table not strictly increasing"
            | _ -> ());
            go rest
      in
      go points

(* The flash-crowd shape in [0, 1]: linear ramp up, plateau, symmetric ramp
   down. *)
let flash_shape ~at ~ramp ~hold t =
  let s = Time.to_float_s t in
  let t0 = Time.to_float_s at and r = Time.to_float_s ramp in
  let h = Time.to_float_s hold in
  if s <= t0 then 0.
  else if r > 0. && s < t0 +. r then (s -. t0) /. r
  else if s <= t0 +. r +. h then 1.
  else if r > 0. && s < t0 +. r +. h +. r then
    1. -. ((s -. (t0 +. r +. h)) /. r)
  else 0.

let rate_at t now =
  match t with
  | Constant { rate_per_s } | Poisson { rate_per_s } -> rate_per_s
  | Diurnal { base_per_s; amplitude; period } ->
      let x = Time.to_float_s now /. Time.to_float_s period in
      base_per_s *. (1. +. (amplitude *. sin (2. *. pi *. x)))
  | Flash { base_per_s; peak_per_s; at; ramp; hold } ->
      base_per_s
      +. ((peak_per_s -. base_per_s) *. flash_shape ~at ~ramp ~hold now)
  | Replay { points } ->
      let rec go rate = function
        | (from, r) :: rest when Time.compare from now <= 0 -> go r rest
        | _ -> rate
      in
      go 0. points

let peak_rate = function
  | Constant { rate_per_s } | Poisson { rate_per_s } -> rate_per_s
  | Diurnal { base_per_s; amplitude; _ } -> base_per_s *. (1. +. amplitude)
  | Flash { peak_per_s; _ } -> peak_per_s
  | Replay { points } -> List.fold_left (fun m (_, r) -> Float.max m r) 0. points

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

let mean_count t ~until =
  let horizon = Time.to_float_s until in
  match t with
  | Constant { rate_per_s } | Poisson { rate_per_s } -> rate_per_s *. horizon
  | Diurnal { base_per_s; amplitude; period } ->
      let p = Time.to_float_s period in
      let swing =
        base_per_s *. amplitude *. (p /. (2. *. pi))
        *. (1. -. cos (2. *. pi *. horizon /. p))
      in
      (base_per_s *. horizon) +. swing
  | Flash { base_per_s; peak_per_s; at; ramp; hold } ->
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
  | Replay { points } ->
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

(* One step forward: a gap that rounds to 0 ns would repeat the previous
   instant, so every step is at least 1 ns. *)
let step now gap_s = Time.add now (Time.max (Time.of_float_s gap_s) (Time.ns 1))

type gen = {
  arr : t;
  rng : Prng.t;
  until : Time.t;
  envelope : float;  (** Thinning envelope; 0 means a dead process. *)
  mutable now : Time.t;
  mutable live : bool;
}

let generator arr ~rng ~until =
  validate arr;
  { arr; rng; until; envelope = peak_rate arr; now = Time.zero; live = true }

let next g =
  if (not g.live) || g.envelope <= 0. then None
  else
    let stop () =
      g.live <- false;
      None
    in
    match g.arr with
    | Constant { rate_per_s } ->
        g.now <- step g.now (1. /. rate_per_s);
        if Time.compare g.now g.until >= 0 then stop () else Some g.now
    | Poisson { rate_per_s } ->
        g.now <- step g.now (Prng.exponential g.rng ~rate:rate_per_s);
        if Time.compare g.now g.until >= 0 then stop () else Some g.now
    | _ ->
        (* Lewis–Shedler thinning: candidates from a homogeneous process at
           the envelope rate, each kept with probability rate/envelope. *)
        let rec refine () =
          g.now <- step g.now (Prng.exponential g.rng ~rate:g.envelope);
          if Time.compare g.now g.until >= 0 then stop ()
          else if Prng.float g.rng *. g.envelope <= rate_at g.arr g.now then
            Some g.now
          else refine ()
        in
        refine ()
