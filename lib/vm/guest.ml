module Time = Sw_sim.Time

type sinks = {
  send :
    seq:int ->
    instr:int ->
    dst:Sw_net.Address.t ->
    size:int ->
    payload:Sw_net.Packet.payload ->
    unit;
  disk :
    kind:[ `Read | `Write ] ->
    bytes:int ->
    sequential:bool ->
    tag:int ->
    instr:int ->
    unit;
  dma : bytes:int -> tag:int -> instr:int -> unit;
}

type t = {
  app : App.t;
  vt : Virtual_time.t;
  sinks : sinks;
  actions : App.action Queue.t;
  mutable head_done : int;
      (** Branches already retired from the [Compute] at the head of
          [actions]; 0 when the head is not a partly run compute. *)
  mutable instr : int;
  mutable out_seq : int;
  (* One-shot timers as a sorted association list (deadline, tag); guests set
     few timers, so a list is fine and keeps ordering explicit. *)
  mutable timers : (Time.t * int) list;
  mutable next_tick : Time.t option;
  pit_period : Time.t option;
  mutable sent : int;
  mutable muted : bool;
}

let create ~app ~vt ?pit_period ~sinks () =
  (match pit_period with
  | Some p when Time.(p <= Time.zero) ->
      invalid_arg "Guest.create: pit_period must be positive"
  | _ -> ());
  {
    app;
    vt;
    sinks;
    actions = Queue.create ();
    head_done = 0;
    instr = 0;
    out_seq = 0;
    timers = [];
    next_tick = None;
    pit_period;
    sent = 0;
    muted = false;
  }

let instr t = t.instr
let virt_now t = Virtual_time.virt_at t.vt t.instr

let insert_timer t deadline tag =
  let rec insert = function
    | [] -> [ (deadline, tag) ]
    | ((d, g) as hd) :: rest ->
        if Time.(deadline < d) || (Time.equal deadline d && tag < g) then
          (deadline, tag) :: hd :: rest
        else hd :: insert rest
  in
  t.timers <- insert t.timers

(* Execute queued actions that take no guest time, stopping at the first
   Compute (or when the queue empties). [Queue.peek] behind [is_empty]
   rather than [peek_opt]: no option is allocated per look. *)
let rec process_immediate t =
  if not (Queue.is_empty t.actions) then
    match Queue.peek t.actions with
    | App.Compute _ -> ()
    | action ->
        ignore (Queue.pop t.actions);
        (match action with
        | App.Compute _ -> assert false
        | App.Send { dst; size; payload } ->
            let seq = t.out_seq in
            t.out_seq <- seq + 1;
            t.sent <- t.sent + 1;
            if not t.muted then t.sinks.send ~seq ~instr:t.instr ~dst ~size ~payload
        | App.Disk_read { bytes; sequential; tag } ->
            if not t.muted then
              t.sinks.disk ~kind:`Read ~bytes ~sequential ~tag ~instr:t.instr
        | App.Disk_write { bytes; sequential; tag } ->
            if not t.muted then
              t.sinks.disk ~kind:`Write ~bytes ~sequential ~tag ~instr:t.instr
        | App.Dma_transfer { bytes; tag } ->
            if not t.muted then t.sinks.dma ~bytes ~tag ~instr:t.instr
        | App.Set_timer { after; tag } ->
            if Time.is_negative after then
              invalid_arg "Guest: Set_timer with negative delay";
            insert_timer t (Time.add (virt_now t) after) tag);
        process_immediate t

let rec push_all q = function
  | [] -> ()
  | a :: rest ->
      Queue.push a q;
      push_all q rest

let dispatch t event =
  push_all t.actions (t.app.App.handle ~virt_now:(virt_now t) event);
  process_immediate t

let boot t =
  (match t.pit_period with
  | Some p -> t.next_tick <- Some (Time.add (virt_now t) p)
  | None -> ());
  dispatch t App.Boot

let inject t event = dispatch t event

let run_branches t n =
  if n < 0 then invalid_arg "Guest.run_branches: negative";
  let remaining = ref n in
  while !remaining > 0 do
    if Queue.is_empty t.actions then begin
      (* Idle spin: burn the rest of the slice. *)
      t.instr <- t.instr + !remaining;
      remaining := 0
    end
    else
      match Queue.peek t.actions with
      | App.Compute c ->
          (* A compute cut by the end of the previous slice stays at the head;
             [head_done] says how much of it already ran. *)
          let left = c - t.head_done in
          if left <= !remaining then begin
            t.instr <- t.instr + left;
            remaining := !remaining - left;
            ignore (Queue.pop t.actions);
            t.head_done <- 0;
            process_immediate t
          end
          else begin
            t.instr <- t.instr + !remaining;
            t.head_done <- t.head_done + !remaining;
            remaining := 0
          end
      | _ ->
          (* Defensive: immediate actions should have been drained. *)
          process_immediate t
  done

(* A top-level recursion rather than a local [loop] closure over [t]: it
   runs at every VM exit and allocates nothing when no timer is due. *)
let rec deliver_due_timers t =
  let now = virt_now t in
  let due_tick =
    match t.next_tick with Some d when Time.(d <= now) -> true | _ -> false
  in
  let due_timer =
    match t.timers with (d, _) :: _ when Time.(d <= now) -> true | _ -> false
  in
  (* Deliver in deadline order; ties go to the one-shot timer. *)
  if due_timer || due_tick then begin
    let timer_first =
      match (t.timers, t.next_tick) with
      | (d, _) :: _, Some tick -> due_timer && (Time.(d <= tick) || not due_tick)
      | _ :: _, None -> true
      | [], _ -> false
    in
    if timer_first then begin
      match t.timers with
      | (_, tag) :: rest ->
          t.timers <- rest;
          dispatch t (App.Timer { tag })
      | [] -> assert false
    end
    else begin
      (match (t.next_tick, t.pit_period) with
      | Some d, Some p -> t.next_tick <- Some (Time.add d p)
      | _ -> assert false);
      dispatch t App.Tick
    end;
    deliver_due_timers t
  end

let set_muted t muted = t.muted <- muted
let sent_packets t = t.sent
