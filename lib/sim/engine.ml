type event_id = Wheel.handle

type kind_hooks = {
  k_scheduled : Sw_obs.Registry.Counter.t;
  k_delay : Sw_obs.Registry.Histogram.t;
}

(* The hooks register on the first schedule, so a kind that is never
   scheduled exports nothing. Handles built from one engine share its
   registry, and the registry hands back the cells already registered under
   a name. *)
type kind = {
  k_name : string;
  k_metrics : Sw_obs.Registry.t;
  mutable k_hooks : kind_hooks option;
}

type t = {
  mutable now : Time.t;
  wheel : Wheel.t;
  mutable live : int;
  root_rng : Prng.t;
  metrics : Sw_obs.Registry.t;
  m_scheduled : Sw_obs.Registry.Counter.t;
  m_fired : Sw_obs.Registry.Counter.t;
  m_cancelled : Sw_obs.Registry.Counter.t;
  m_depth : Sw_obs.Registry.Gauge.t;
  profile : Sw_obs.Profile.t;
  p_dispatch : Sw_obs.Profile.timer;
  mutable trace : Sw_obs.Trace.t option;
}

let create ?(seed = 0x5397_BA1DL) ?metrics ?profile () =
  let metrics =
    match metrics with Some m -> m | None -> Sw_obs.Registry.create ()
  in
  let profile =
    match profile with Some p -> p | None -> Sw_obs.Profile.create ()
  in
  {
    now = Time.zero;
    wheel = Wheel.create ();
    live = 0;
    root_rng = Prng.create seed;
    metrics;
    m_scheduled = Sw_obs.Registry.counter metrics "sim.events.scheduled";
    m_fired = Sw_obs.Registry.counter metrics "sim.events.fired";
    m_cancelled = Sw_obs.Registry.counter metrics "sim.events.cancelled";
    m_depth = Sw_obs.Registry.gauge metrics "sim.queue.depth";
    profile;
    p_dispatch = Sw_obs.Profile.timer profile "engine.dispatch";
    trace = None;
  }

let now t = t.now
let rng t = Prng.split t.root_rng
let metrics t = t.metrics
let profile t = t.profile
let attach_trace t tr = t.trace <- Some tr
let tracing t = Option.is_some t.trace

let emit t event =
  match t.trace with
  | Some tr -> Sw_obs.Trace.emit tr ~at_ns:t.now event
  | None -> ()

let kind t name = { k_name = name; k_metrics = t.metrics; k_hooks = None }

let kind_hooks k =
  match k.k_hooks with
  | Some h -> h
  | None ->
      let h =
        {
          k_scheduled =
            Sw_obs.Registry.counter k.k_metrics
              (Printf.sprintf "sim.events.%s.scheduled" k.k_name);
          k_delay =
            Sw_obs.Registry.histogram k.k_metrics
              (Printf.sprintf "sim.events.%s.delay_ns" k.k_name);
        }
      in
      k.k_hooks <- Some h;
      h

let schedule_at ?kind t at fn =
  if Time.(at < t.now) then
    invalid_arg
      (Format.asprintf "Engine.schedule_at: %a is before now (%a)" Time.pp at
         Time.pp t.now);
  let id = Wheel.add t.wheel ~key:at fn in
  t.live <- t.live + 1;
  Sw_obs.Registry.Counter.incr t.m_scheduled;
  Sw_obs.Registry.Gauge.observe_int t.m_depth t.live;
  (match kind with
  | None -> ()
  | Some kind ->
      let h = kind_hooks kind in
      Sw_obs.Registry.Counter.incr h.k_scheduled;
      Sw_obs.Registry.Histogram.observe h.k_delay (Time.sub at t.now));
  id

let schedule_after ?kind t delay fn =
  if Time.is_negative delay then
    invalid_arg "Engine.schedule_after: negative delay";
  schedule_at ?kind t (Time.add t.now delay) fn

let cancel t id =
  (* The wheel refuses stale handles (already fired, already cancelled, or
     recycled), so a late cancel cannot double-decrement [live]. *)
  if Wheel.cancel t.wheel id then begin
    t.live <- t.live - 1;
    Sw_obs.Registry.Counter.incr t.m_cancelled;
    Sw_obs.Registry.Gauge.observe_int t.m_depth t.live
  end

(* Fires the earliest pending event, due at [at]; the caller has checked
   there is one. The wheel hands back the bare closure, so firing allocates
   nothing. *)
let fire t at =
  t.now <- at;
  let fn = Wheel.pop t.wheel in
  t.live <- t.live - 1;
  Sw_obs.Registry.Counter.incr t.m_fired;
  Sw_obs.Registry.Gauge.observe_int t.m_depth t.live;
  Sw_obs.Profile.time t.profile t.p_dispatch fn

(* [max_int] is [Wheel.next_key]'s "nothing pending". *)
let fire_at_or_before t limit =
  let at = Wheel.next_key t.wheel in
  at <= limit && at < max_int
  && begin
       fire t at;
       true
     end

let step t = fire_at_or_before t max_int

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      while fire_at_or_before t limit do () done;
      (* Bounded runs always land exactly on the limit, including when the
         queue drained early: simulated time still passes. The clock never
         rewinds. Snapping the drained wheel's horizon to the parked clock
         keeps post-barrier scheduling on the O(1) wheel path. *)
      if Time.(limit > t.now) then t.now <- limit;
      Wheel.advance t.wheel t.now

let pending t = t.live
let fired t = Sw_obs.Registry.Counter.value t.m_fired
