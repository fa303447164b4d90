module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Registry = Sw_obs.Registry

type params = {
  max_seek : Time.t;
  max_rotation : Time.t;
  transfer_bps : int;
  sequential_seek_fraction : float;
}

let default_params =
  {
    max_seek = Time.ms 3;
    max_rotation = Time.ms 4;
    transfer_bps = 100_000_000;
    sequential_seek_fraction = 0.05;
  }

type kind = Read | Write

type t = {
  engine : Engine.t;
  params : params;
  path : string;
  rng : Sw_sim.Prng.t;
  mutable free_at : Time.t;  (** When the head becomes available. *)
  m_completed : Registry.Counter.t;
  per_vm : (int, Registry.Counter.t) Hashtbl.t;
  m_busy_ns : Registry.Counter.t;
  m_service : Registry.Histogram.t;
  p_complete : Sw_obs.Profile.timer;
  k_complete : Engine.kind option;  (* boxed once, not per request *)
}

let create engine ?(params = default_params) ?(path = "disk") () =
  let metrics = Engine.metrics engine in
  {
    engine;
    params;
    path;
    rng = Engine.rng engine;
    free_at = Time.zero;
    m_completed = Registry.counter metrics (path ^ ".completed");
    per_vm = Hashtbl.create 8;
    m_busy_ns = Registry.counter metrics (path ^ ".busy_ns");
    m_service = Registry.histogram metrics (path ^ ".service_ns");
    p_complete = Sw_obs.Profile.timer (Engine.profile engine) "disk.complete";
    k_complete = Some (Engine.kind engine "disk.complete");
  }

let vm_counter t vm =
  match Hashtbl.find_opt t.per_vm vm with
  | Some c -> c
  | None ->
      let c =
        Registry.counter (Engine.metrics t.engine)
          (Printf.sprintf "%s.vm%d.completed" t.path vm)
      in
      Hashtbl.add t.per_vm vm c;
      c

let draw_upto rng limit =
  if Time.equal limit Time.zero then Time.zero
  else Time.ns (Sw_sim.Prng.int rng (1 + limit))

let service_time t ~bytes ~sequential =
  let p = t.params in
  let scale_seq full =
    if sequential then Time.scale full p.sequential_seek_fraction else full
  in
  (* Sequential requests continue on-track: both the seek and the rotational
     positioning shrink by the sequential fraction. *)
  let seek = scale_seq (draw_upto t.rng p.max_seek) in
  let rotation = scale_seq (draw_upto t.rng p.max_rotation) in
  let transfer =
    Time.ns
      (int_of_float
         (Float.round (float_of_int bytes *. 1e9 /. float_of_int p.transfer_bps)))
  in
  Time.add seek (Time.add rotation transfer)

let submit t ~vm ~kind:_ ~bytes ~sequential k =
  if bytes <= 0 then invalid_arg "Disk.submit: bytes must be positive";
  let now = Engine.now t.engine in
  let service = service_time t ~bytes ~sequential in
  let start = Time.max now t.free_at in
  let finish = Time.add start service in
  t.free_at <- finish;
  Registry.Counter.add t.m_busy_ns service;
  Registry.Histogram.observe t.m_service service;
  let vm_completed = vm_counter t vm in
  ignore
    (Engine.schedule_at ?kind:t.k_complete t.engine finish (fun () ->
         Registry.Counter.incr t.m_completed;
         Registry.Counter.incr vm_completed;
         Sw_obs.Profile.time (Engine.profile t.engine) t.p_complete k))

let completed t = Registry.Counter.value t.m_completed

let completed_for t ~vm =
  match Hashtbl.find_opt t.per_vm vm with
  | Some c -> Registry.Counter.value c
  | None -> 0

let busy_time t = Time.ns (Registry.Counter.value t.m_busy_ns)

let max_service_time t =
  let m = Registry.Histogram.max t.m_service in
  if m = min_int then Time.zero else m
