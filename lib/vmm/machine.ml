module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Registry = Sw_obs.Registry

type resident = {
  name : string;
  runnable : unit -> bool;
  on_slice_end : unit -> unit;
}

(* [slice_end] is the event every one of the resident's slices schedules,
   built once at [attach] so that starting a slice allocates no closure. *)
type resident_state = {
  r : resident;
  mutable running : bool;
  slice_end : unit -> unit;
}

type t = {
  engine : Engine.t;
  network : Sw_net.Network.t;
  id : int;
  slice_wall : Time.t;  (** Wall-clock duration of one guest slice. *)
  clock_offset : Time.t;
  disk : Sw_disk.Disk.t;
  mutable residents : resident_state array;
  mutable dom0_busy_until : Time.t;
  mutable nic_busy_until : Time.t;
  mutable dma_busy_until : Time.t;
  (* Fault-injection state: a stall freezes everything the machine would do
     until the given instant; a slowdown stretches guest slices by a factor.
     Both default to the identity and cost nothing when unused. *)
  mutable stalled_until : Time.t;
  mutable slowdown : float;
  m_slices : Registry.Counter.t;
  m_dom0_ns : Registry.Counter.t;
  (* Event kinds, boxed once so that scheduling allocates no option. *)
  k_slice : Engine.kind option;
  k_dom0 : Engine.kind option;
}

let create engine network ~id ~config ~rate_multiplier ~clock_offset =
  Config.validate config;
  if rate_multiplier <= 0. then
    invalid_arg "Machine.create: rate_multiplier must be positive";
  let metrics = Engine.metrics engine in
  {
    engine;
    network;
    id;
    slice_wall = Time.scale config.Config.quantum (1. /. rate_multiplier);
    clock_offset;
    disk =
      Sw_disk.Disk.create engine ~params:config.Config.disk
        ~path:(Printf.sprintf "vmm.%d.disk" id);
    residents = [||];
    dom0_busy_until = Time.zero;
    nic_busy_until = Time.zero;
    dma_busy_until = Time.zero;
    stalled_until = Time.zero;
    slowdown = 1.0;
    m_slices = Registry.counter metrics (Printf.sprintf "vmm.%d.slices" id);
    m_dom0_ns = Registry.counter metrics (Printf.sprintf "vmm.%d.dom0_ns" id);
    k_slice = Some (Engine.kind engine "vmm.slice");
    k_dom0 = Some (Engine.kind engine "vmm.dom0");
  }

let id t = t.id
let local_time t = Time.add (Engine.now t.engine) t.clock_offset
let address t = Sw_net.Address.Vmm t.id
let engine t = t.engine
let network t = t.network
let disk t = t.disk

(* Each guest has its own core (the paper's machines have 16 cores for at
   most (n-1)/2 guests), so resident slice loops run independently; a
   resident's loop parks itself when the replica group blocks it and is
   restarted by [wake]. *)
let slice_loop t rs =
  if rs.r.runnable () then begin
    rs.running <- true;
    let slice_start = Engine.now t.engine in
    Registry.Counter.incr t.m_slices;
    let wall =
      if t.slowdown = 1.0 then t.slice_wall else Time.scale t.slice_wall t.slowdown
    in
    let finish = Time.add (Time.max slice_start t.stalled_until) wall in
    Engine.schedule_at ?kind:t.k_slice t.engine finish rs.slice_end
  end
  else rs.running <- false

let attach t r =
  let rec rs =
    {
      r;
      running = false;
      slice_end =
        (fun () ->
          rs.r.on_slice_end ();
          slice_loop t rs);
    }
  in
  t.residents <- Array.append t.residents [| rs |];
  slice_loop t rs

let wake t =
  let residents = t.residents in
  for k = 0 to Array.length residents - 1 do
    let rs = residents.(k) in
    if not rs.running then slice_loop t rs
  done

(* Freeze the whole machine — guest cores, Dom0, NIC, DMA — until [until].
   Slices already in flight complete at their scheduled instant (the
   simulation has no preemption); everything that would start meanwhile is
   pushed past the stall. *)
let stall t ~until =
  if Time.(until > t.stalled_until) then t.stalled_until <- until;
  if Time.(until > t.dom0_busy_until) then t.dom0_busy_until <- until;
  if Time.(until > t.nic_busy_until) then t.nic_busy_until <- until;
  if Time.(until > t.dma_busy_until) then t.dma_busy_until <- until

(* Dom0-only pause: guest cores keep retiring branches but device models
   (packet and disk processing) queue behind the pause — the paper's Dom0
   contention, made injectable. *)
let pause_dom0 t ~until =
  if Time.(until > t.dom0_busy_until) then t.dom0_busy_until <- until

let set_slowdown t factor =
  if factor < 1.0 then invalid_arg "Machine.set_slowdown: factor must be >= 1";
  t.slowdown <- factor

(* Dom0 runs the device models for every resident on one shared thread; work
   is served FIFO — the queueing delay coresident VMs impose on each other
   here is a key source of the access-driven timing channel. *)
let dom0_execute t ~cost k =
  let now = Engine.now t.engine in
  let start = Time.max now t.dom0_busy_until in
  let finish = Time.add start cost in
  t.dom0_busy_until <- finish;
  Registry.Counter.add t.m_dom0_ns cost;
  Engine.schedule_at ?kind:t.k_dom0 t.engine finish k

let dom0_work t span = dom0_execute t ~cost:span (fun () -> ())

(* The testbed's 1 Gb/s NIC and the DMA engine's 8 Gb/s transfer rate. *)
let nic_bps = 1_000_000_000
let dma_bps = 8_000_000_000

let transmit t pkt =
  dom0_execute t ~cost:Config.dom0_per_packet (fun () ->
      let now = Engine.now t.engine in
      let serialisation =
        Time.ns
          (int_of_float
             (Float.round
                (float_of_int (pkt.Sw_net.Packet.size * 8) *. 1e9 /. float_of_int nic_bps)))
      in
      let depart = Time.add (Time.max now t.nic_busy_until) serialisation in
      t.nic_busy_until <- depart;
      Engine.schedule_at t.engine depart (fun () ->
          Sw_net.Network.send t.network pkt))

let dma_execute t ~bytes k =
  if bytes <= 0 then invalid_arg "Machine.dma_execute: bytes must be positive";
  let now = Engine.now t.engine in
  let transfer =
    Time.ns
      (int_of_float
         (Float.round
            (float_of_int (bytes * 8) *. 1e9 /. float_of_int dma_bps)))
  in
  let finish = Time.add (Time.max now t.dma_busy_until) transfer in
  t.dma_busy_until <- finish;
  Engine.schedule_at t.engine finish k
