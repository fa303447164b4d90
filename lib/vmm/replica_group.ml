module Time = Sw_sim.Time
module Registry = Sw_obs.Registry

type mode = Stopwatch | Baseline

type report = { d : Time.t; r : Time.t }

type member = {
  replica_id : int;
  machine : int;
  wake : unit -> unit;
  apply_slope : at_instr:int -> slope_ns_per_branch:float -> unit;
  send_report : epoch:int -> d:Time.t -> r:Time.t -> unit;
  mutable virt : Time.t;
  mutable blocked_skew : bool;
  mutable active : bool;
      (** False once ejected by the watchdog; inactive members neither vote
          in medians nor gate epoch resolution. *)
  mutable last_seen : Time.t;
      (** Real time of the last sign of life (exit, heartbeat, report). *)
  (* Epoch state *)
  mutable epoch_index : int;  (** Next epoch boundary to cross. *)
  mutable epoch_start_real : Time.t;
  mutable blocked_epoch : bool;
  mutable pending_boundary : (int * Time.t) option;
      (** (exit instr, virt) at the boundary crossing awaiting resolution. *)
  reports : (int * int, report) Hashtbl.t;
      (** Reports received at this member, keyed by (epoch, replica). *)
}

type t = {
  vm : int;
  config : Config.t;
  mode : mode;
  mutable members : member array;
  mutable on_membership_change : (unit -> unit) list;
  mutable degraded_since : Time.t option;
      (** Set while the group runs with at least one ejected member. *)
  m_divergences : Registry.Counter.t;
  m_skew_blocks : Registry.Counter.t;
  m_ejections : Registry.Counter.t;
  m_reintegrations : Registry.Counter.t;
  m_degraded_ns : Registry.Sum.t;
}

let create ?metrics ~vm ~config ~mode () =
  Config.validate config;
  (* Standalone groups (unit tests) get a private registry; the cloud passes
     its simulation-wide one. *)
  let metrics =
    match metrics with Some m -> m | None -> Registry.create ()
  in
  {
    vm;
    config;
    mode;
    members = [||];
    on_membership_change = [];
    degraded_since = None;
    m_divergences =
      Registry.counter metrics (Printf.sprintf "vm%d.divergences" vm);
    m_skew_blocks =
      Registry.counter metrics (Printf.sprintf "vm%d.skew_blocks" vm);
    m_ejections = Registry.counter metrics (Printf.sprintf "vm%d.ejections" vm);
    m_reintegrations =
      Registry.counter metrics (Printf.sprintf "vm%d.reintegrations" vm);
    m_degraded_ns = Registry.sum metrics (Printf.sprintf "vm%d.degraded_ns" vm);
  }

let vm t = t.vm
let mode t = t.mode
let config t = t.config
let replica_id m = m.replica_id
let machine_of m = m.machine
let member_virt m = m.virt
let complete t = Array.length t.members = t.config.Config.replicas

let member_by_id t id =
  if id >= 0 && id < Array.length t.members then Some t.members.(id) else None

let add_member t ~machine ~wake ~apply_slope ~send_report =
  if complete t then invalid_arg "Replica_group.add_member: group is full";
  let m =
    {
      replica_id = Array.length t.members;
      machine;
      wake;
      apply_slope;
      send_report;
      virt = Time.zero;
      blocked_skew = false;
      active = true;
      last_seen = Time.zero;
      epoch_index = 0;
      epoch_start_real = Time.zero;
      blocked_epoch = false;
      pending_boundary = None;
      reports = Hashtbl.create 8;
    }
  in
  t.members <- Array.append t.members [| m |];
  m

(* Vote counts are 3 (or 5 with spares) per replicated interrupt, so this
   sits on the delivery hot path; the branch networks in [Order_stats] take
   the small odd cases without copying or sorting. *)
let median_time times =
  if Array.length times mod 2 = 0 then
    invalid_arg "Replica_group.median_time: even count";
  Sw_stats.Order_stats.median_int times

let active m = m.active
let last_seen m = m.last_seen
let note_seen _t m ~now = if Time.(now > m.last_seen) then m.last_seen <- now

let active_count t =
  Array.fold_left (fun acc m -> if m.active then acc + 1 else acc) 0 t.members

(* The group degrades to the largest odd quorum the active members can
   field; the voters are the active members with the lowest replica ids, so
   every VMM derives the same voter set from the same membership view. *)
let quorum t =
  let n = active_count t in
  if n = 0 then 0 else if n mod 2 = 1 then n else n - 1

let quorum_ids t =
  let q = quorum t in
  let ids = ref [] and taken = ref 0 in
  Array.iter
    (fun m ->
      if m.active && !taken < q then begin
        ids := m.replica_id :: !ids;
        incr taken
      end)
    t.members;
  List.rev !ids

let blocked _t m = m.blocked_skew || m.blocked_epoch

(* Deschedule the strictly fastest member when it leads the second fastest
   by more than the bound; everyone else runs. Only active members take part:
   a crashed replica's frozen virtual time must not pin the survivors, and an
   ejected-but-live member free-runs as a non-voting bystander. *)
let update_skew t =
  (* Runs on every VM exit, so the two largest virtual times come from a
     single scan over the members — no intermediate list, array or sort.
     Duplicated maxima land in both [fastest] and [second], exactly as the
     two head elements of a descending sort would. [for] loops over local
     refs, not [Array.iter] closures: the scan allocates nothing. *)
  let members = t.members in
  let live = ref 0 in
  let fastest = ref Time.zero and second = ref Time.zero in
  for i = 0 to Array.length members - 1 do
    let m = members.(i) in
    if m.active then begin
      incr live;
      if !live = 1 then fastest := m.virt
      else if Time.(m.virt > !fastest) then begin
        second := !fastest;
        fastest := m.virt
      end
      else if !live = 2 then second := m.virt
      else if Time.(m.virt > !second) then second := m.virt
    end
  done;
  if !live >= 2 then begin
    let fastest = !fastest and second = !second in
    let limit = t.config.Config.skew_bound in
    for i = 0 to Array.length members - 1 do
      let m = members.(i) in
      if m.active then begin
        let should_block =
          Time.equal m.virt fastest && Time.(Time.sub fastest second > limit)
        in
        if m.blocked_skew && not should_block then begin
          m.blocked_skew <- false;
          m.wake ()
        end
        else begin
          if should_block && not m.blocked_skew then
            Registry.Counter.incr t.m_skew_blocks;
          m.blocked_skew <- should_block
        end
      end
    done
  end

(* Try to resolve the epoch this member is blocked on: needs its own
   boundary crossing recorded and the reports of every quorum voter. A full
   group's quorum is all replicas; a degraded group resolves over the
   surviving odd quorum so the epoch machinery keeps making progress. *)
let current_reports t m =
  match quorum_ids t with
  | [] -> None
  | voters ->
      let found =
        List.map (fun from -> Hashtbl.find_opt m.reports (m.epoch_index, from)) voters
      in
      if List.for_all Option.is_some found then
        Some (Array.of_list (List.map Option.get found))
      else None

let try_resolve_epoch t m =
  match (m.pending_boundary, t.config.Config.epoch, current_reports t m) with
  | Some (boundary_instr, boundary_virt), Some e, Some reports ->
      let r_star = median_time (Array.map (fun rep -> rep.r) reports) in
      (* D* comes from the machine contributing the median real time; ties
         resolve to the lowest replica id for determinism. *)
      let d_star =
        let rec find i =
          if Time.equal reports.(i).r r_star then reports.(i).d else find (i + 1)
        in
        find 0
      in
      let raw_slope =
        Time.to_float_s (Time.add (Time.sub r_star boundary_virt) d_star)
        *. 1e9
        /. float_of_int e.Config.interval_branches
      in
      let slope =
        Sw_vm.Virtual_time.clamped_slope ~l:e.Config.slope_l ~u:e.Config.slope_u
          raw_slope
      in
      m.apply_slope ~at_instr:boundary_instr ~slope_ns_per_branch:slope;
      m.pending_boundary <- None;
      for from = 0 to t.config.Config.replicas - 1 do
        Hashtbl.remove m.reports (m.epoch_index, from)
      done;
      m.epoch_index <- m.epoch_index + 1;
      m.blocked_epoch <- false;
      m.wake ()
  | _ -> ()

let note_epoch_crossing t m ~now ~virt ~instr =
  match t.config.Config.epoch with
  | None -> ()
  | Some e ->
      let boundary = (m.epoch_index + 1) * e.Config.interval_branches in
      if instr >= boundary && Option.is_none m.pending_boundary then begin
        let d = Time.sub now m.epoch_start_real in
        m.epoch_start_real <- now;
        m.pending_boundary <- Some (instr, virt);
        m.blocked_epoch <- true;
        (* Record our own report locally and multicast it to the peers. *)
        Hashtbl.replace m.reports (m.epoch_index, m.replica_id) { d; r = now };
        m.send_report ~epoch:m.epoch_index ~d ~r:now;
        try_resolve_epoch t m
      end

let note_exit t m ~now ~virt ~instr =
  m.virt <- virt;
  note_seen t m ~now;
  match t.mode with
  | Baseline -> ()
  | Stopwatch ->
      update_skew t;
      note_epoch_crossing t m ~now ~virt ~instr

let receive_report t ~at ~from_replica ~epoch ~d ~r =
  match t.mode with
  | Baseline -> ()
  | Stopwatch ->
      (* Reports for already-resolved epochs are stale duplicates; future
         epochs (a fast peer racing ahead) are buffered until this member
         catches up. *)
      if epoch >= at.epoch_index then begin
        Hashtbl.replace at.reports (epoch, from_replica) { d; r };
        try_resolve_epoch t at
      end

let record_divergence t = Registry.Counter.incr t.m_divergences
let skew_blocks t = Registry.Counter.value t.m_skew_blocks
let divergences t = Registry.Counter.value t.m_divergences

let epochs_resolved t =
  let resolved = ref max_int and any = ref false in
  Array.iter
    (fun m ->
      if m.active then begin
        any := true;
        resolved := Stdlib.min !resolved m.epoch_index
      end)
    t.members;
  if !any then !resolved else 0

let on_membership_change t f =
  t.on_membership_change <- f :: t.on_membership_change

(* Open or close the degraded-mode window; the sum only accumulates closed
   windows, so [degraded_ns] adds the still-open one on read. *)
let note_degraded_transition t ~now =
  let degraded = active_count t < Array.length t.members in
  match (t.degraded_since, degraded) with
  | None, true -> t.degraded_since <- Some now
  | Some since, false ->
      Registry.Sum.add t.m_degraded_ns (float_of_int (Time.sub now since));
      t.degraded_since <- None
  | _ -> ()

let degraded_ns t ~now =
  let closed = Registry.Sum.value t.m_degraded_ns in
  match t.degraded_since with
  | Some since -> closed +. float_of_int (Time.sub now since)
  | None -> closed

(* After any membership change the survivors must re-evaluate everything the
   old membership was gating: the skew frontier shrank or grew, and epochs
   waiting on a dead voter's report may now resolve over the new quorum.
   External listeners (VMM median rescans, egress population) run last, once
   the group state is consistent. *)
let fire_membership_change t =
  update_skew t;
  Array.iter (fun m -> if m.active then try_resolve_epoch t m) t.members;
  List.iter (fun f -> f ()) (List.rev t.on_membership_change)

let eject t m ~now =
  if m.active then begin
    m.active <- false;
    Registry.Counter.incr t.m_ejections;
    (* A live-but-ejected bystander must not stay parked on group decisions
       it no longer participates in. *)
    if m.blocked_skew || m.blocked_epoch then begin
      m.blocked_skew <- false;
      m.blocked_epoch <- false;
      m.wake ()
    end;
    note_degraded_transition t ~now;
    fire_membership_change t
  end

let reinstate t m ~now ~virt ~like =
  if m.active then invalid_arg "Replica_group.reinstate: member is active";
  if not like.active then
    invalid_arg "Replica_group.reinstate: resync source must be active";
  m.active <- true;
  Registry.Counter.incr t.m_reintegrations;
  m.virt <- virt;
  m.last_seen <- now;
  m.blocked_skew <- false;
  m.blocked_epoch <- false;
  m.pending_boundary <- None;
  (* Resync barrier: adopt the survivor's epoch position and report buffer so
     the rejoined member neither re-votes resolved epochs nor waits on
     reports that were consumed before it returned. *)
  m.epoch_index <- like.epoch_index;
  m.epoch_start_real <- like.epoch_start_real;
  Hashtbl.reset m.reports;
  Hashtbl.iter (fun k v -> Hashtbl.replace m.reports k v) like.reports;
  note_degraded_transition t ~now;
  fire_membership_change t

let ejections t = Registry.Counter.value t.m_ejections
let reintegrations t = Registry.Counter.value t.m_reintegrations
