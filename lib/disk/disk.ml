module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Registry = Sw_obs.Registry
module Int_tbl = Sw_obs.Int_tbl

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
  per_vm : Registry.Counter.t Int_tbl.t;
  m_busy_ns : Registry.Counter.t;
  m_service : Registry.Histogram.t;
  p_complete : Sw_obs.Profile.timer;
  k_complete : Engine.kind option;  (* boxed once, not per request *)
}

let create engine ~params ~path =
  let metrics = Engine.metrics engine in
  {
    engine;
    params;
    path;
    rng = Engine.rng engine;
    free_at = Time.zero;
    m_completed = Registry.counter metrics (path ^ ".completed");
    per_vm = Int_tbl.create 8;
    m_busy_ns = Registry.counter metrics (path ^ ".busy_ns");
    m_service = Registry.histogram metrics (path ^ ".service_ns");
    p_complete = Sw_obs.Profile.timer (Engine.profile engine) "disk.complete";
    k_complete = Some (Engine.kind engine "disk.complete");
  }

let vm_counter t vm =
  match Int_tbl.find_opt t.per_vm vm with
  | Some c -> c
  | None ->
      let c =
        Registry.counter (Engine.metrics t.engine)
          (Printf.sprintf "%s.vm%d.completed" t.path vm)
      in
      Int_tbl.add t.per_vm vm c;
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
  Engine.schedule_at ?kind:t.k_complete t.engine finish (fun () ->
      Registry.Counter.incr t.m_completed;
      Registry.Counter.incr vm_completed;
      let p = Engine.profile t.engine in
      if Sw_obs.Profile.enabled p then Sw_obs.Profile.time p t.p_complete k else k ())
