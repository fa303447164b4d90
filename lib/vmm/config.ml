module Time = Sw_sim.Time

type epoch = {
  interval_branches : int;
  slope_l : float;
  slope_u : float;
}

type watchdog = {
  timeout : Time.t;
  period : Time.t;
  retries : int;
}

type t = {
  quantum : Time.t;
  branches_per_ns : float;
  slope_ns_per_branch : float;
  delta_n : Time.t;
  delta_d : Time.t;
  skew_bound : Time.t;
  pit_period : Time.t option;
  epoch : epoch option;
  replicas : int;
  dom0_per_packet : Time.t;
  baseline_inject_delay : Time.t;
  proposal_size : int;
  mcast_nak_delay : Time.t;
  mcast_nak_retries : int;
  mcast_heartbeat : Time.t option;
  nic_bps : int;
  dma_bps : int;
  replay_log : bool;
  disk : Sw_disk.Disk.params;
  vmm_heartbeat : Time.t option;
  watchdog : watchdog option;
  egress_vote_expiry : Time.t option;
}

let slice_branches t =
  int_of_float (Float.round (float_of_int t.quantum *. t.branches_per_ns))

let default =
  {
    quantum = Time.us 200;
    branches_per_ns = 1.0;
    slope_ns_per_branch = 1.0;
    delta_n = Time.ms 10;
    delta_d = Time.ms 12;
    skew_bound = Time.ms 2;
    pit_period = Some (Time.ms 4);
    epoch = None;
    replicas = 3;
    dom0_per_packet = Time.us 50;
    baseline_inject_delay = Time.us 150;
    proposal_size = 80;
    mcast_nak_delay = Time.us 300;
    mcast_nak_retries = 5;
    mcast_heartbeat = None;
    nic_bps = 1_000_000_000;
    dma_bps = 8_000_000_000;
    replay_log = false;
    disk = Sw_disk.Disk.default_params;
    vmm_heartbeat = None;
    watchdog = None;
    egress_vote_expiry = None;
  }

let validate t =
  if Time.(t.quantum <= Time.zero) then invalid_arg "Config: quantum must be positive";
  if t.branches_per_ns <= 0. then invalid_arg "Config: branches_per_ns must be positive";
  if t.slope_ns_per_branch <= 0. then
    invalid_arg "Config: slope_ns_per_branch must be positive";
  if t.replicas < 1 || t.replicas mod 2 = 0 then
    invalid_arg "Config: replicas must be odd and positive";
  if Time.(t.delta_n <= Time.zero) then invalid_arg "Config: delta_n must be positive";
  if Time.(t.delta_d <= Time.zero) then invalid_arg "Config: delta_d must be positive";
  if Time.(t.skew_bound <= Time.zero) then
    invalid_arg "Config: skew_bound must be positive";
  if t.proposal_size <= 0 then invalid_arg "Config: proposal_size must be positive";
  (match t.epoch with
  | Some e ->
      if e.interval_branches < 1 then
        invalid_arg "Config: epoch interval must be positive";
      if e.slope_l <= 0. || e.slope_u < e.slope_l then
        invalid_arg "Config: epoch slope bounds must satisfy 0 < l <= u"
  | None -> ());
  if t.mcast_nak_retries < 1 then
    invalid_arg "Config: mcast_nak_retries must be positive";
  (match t.vmm_heartbeat with
  | Some p when Time.(p <= Time.zero) ->
      invalid_arg "Config: vmm_heartbeat must be positive"
  | _ -> ());
  (match t.watchdog with
  | Some w -> (
      if Time.(w.timeout <= Time.zero) then
        invalid_arg "Config: watchdog timeout must be positive";
      if Time.(w.period <= Time.zero) then
        invalid_arg "Config: watchdog period must be positive";
      if w.retries < 0 then invalid_arg "Config: watchdog retries must be >= 0";
      match t.vmm_heartbeat with
      | None -> invalid_arg "Config: watchdog requires vmm_heartbeat"
      | Some hb ->
          if Time.(w.timeout <= hb) then
            invalid_arg "Config: watchdog timeout must exceed vmm_heartbeat")
  | None -> ());
  (match t.egress_vote_expiry with
  | Some e when Time.(e <= Time.zero) ->
      invalid_arg "Config: egress_vote_expiry must be positive"
  | _ -> ());
  if slice_branches t < 1 then invalid_arg "Config: slice shorter than one branch"
