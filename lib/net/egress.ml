module Int_tbl = Sw_sim.Int_tbl

type vm_entry = {
  mutable replicas : int;
  (* Copies received so far and the first copy, keyed by the guest's
     deterministic packet sequence number. *)
  pending : (int * Packet.t) Int_tbl.t;
}

type t = {
  network : Network.t;
  vms : vm_entry Int_tbl.t;
  vote_expiry : Sw_sim.Time.t option;
  k_expire : Sw_sim.Engine.kind option;  (* boxed once, not per vote *)
  m_forwarded : Sw_obs.Registry.Counter.t;
  m_dropped : Sw_obs.Registry.Counter.t;
  m_mismatches : Sw_obs.Registry.Counter.t;
  m_expired : Sw_obs.Registry.Counter.t;
  mutable trace : Sw_obs.Trace.t option;
}

(* Copies beyond the (m+1)/2-th only serve to retire the vote entry. The
   expiry timer is armed when the first copy creates the entry, so an entry
   that never completes — tail copies lost to tunnel faults, or a crashed
   replica that never sends them, or one that never even releases — is
   reclaimed after [vote_expiry] instead of held for the lifetime of the
   run. *)
let schedule_expiry t entry key =
  match t.vote_expiry with
  | None -> ()
  | Some span ->
      let engine = Network.engine t.network in
      ignore
        (Sw_sim.Engine.schedule_after ?kind:t.k_expire engine span
           (fun () ->
             if Int_tbl.mem entry.pending key then begin
               Int_tbl.remove entry.pending key;
               Sw_obs.Registry.Counter.incr t.m_expired
             end))

let handle t (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Packet.Egress_tunnel { vm; inner; _ } -> (
      match Int_tbl.find t.vms vm with
      | exception Not_found -> Sw_obs.Registry.Counter.incr t.m_dropped
      | entry ->
          let key = inner.Packet.seq in
          let seen, first =
            match Int_tbl.find entry.pending key with
            | n, first -> (n, first)
            | exception Not_found -> (0, inner)
          in
          (* Output vote: replicas are deterministic, so all copies of one
             sequence number must be structurally identical. Payloads are
             immutable, function-free data, so [=] compares them whole. *)
          if
            (not (Address.equal inner.Packet.dst first.Packet.dst))
            || inner.Packet.size <> first.Packet.size
            || inner.Packet.payload <> first.Packet.payload
          then Sw_obs.Registry.Counter.incr t.m_mismatches;
          let seen = seen + 1 in
          let release_rank = (entry.replicas + 1) / 2 in
          if seen >= entry.replicas then Int_tbl.remove entry.pending key
          else Int_tbl.replace entry.pending key (seen, first);
          if seen = 1 && seen < entry.replicas then
            schedule_expiry t entry key;
          if seen = release_rank then begin
            Sw_obs.Registry.Counter.incr t.m_forwarded;
            if Sw_obs.Trace.active t.trace then
              Sw_obs.Trace.emit (Option.get t.trace)
                ~at_ns:(Sw_sim.Engine.now (Network.engine t.network))
                (Sw_obs.Event.Egress_released
                   { vm; seq = key; rank = release_rank; copies = entry.replicas });
            Network.send t.network inner
          end)
  | _ -> Sw_obs.Registry.Counter.incr t.m_dropped

let create ?vote_expiry network =
  let metrics = Sw_sim.Engine.metrics (Network.engine network) in
  let t =
    {
      network;
      vms = Int_tbl.create 16;
      vote_expiry;
      k_expire = Some (Sw_sim.Engine.kind (Network.engine network) "egress.expire");
      m_forwarded = Sw_obs.Registry.counter metrics "net.egress.forwarded";
      m_dropped = Sw_obs.Registry.counter metrics "net.egress.dropped";
      m_mismatches = Sw_obs.Registry.counter metrics "net.egress.mismatches";
      m_expired = Sw_obs.Registry.counter metrics "net.egress.expired_votes";
      trace = None;
    }
  in
  Network.register network Address.Egress (handle t);
  t

let set_trace t tr = t.trace <- Some tr

let check_replicas ~fn replicas =
  if replicas < 1 || replicas mod 2 = 0 then
    invalid_arg (fn ^ ": replica count must be odd and positive")

let register_vm t ~vm ~replicas =
  check_replicas ~fn:"Egress.register_vm" replicas;
  Int_tbl.replace t.vms vm { replicas; pending = Int_tbl.create 64 }

(* Degradation support: when the replica group ejects members, the egress
   must vote over the new quorum size or it would wait forever for copies
   from dead replicas. Entries created before the change keep whatever
   release decision they already made; incomplete ones fall to the expiry
   sweep. *)
let set_replicas t ~vm ~replicas =
  check_replicas ~fn:"Egress.set_replicas" replicas;
  match Int_tbl.find_opt t.vms vm with
  | None -> invalid_arg "Egress.set_replicas: unknown vm"
  | Some entry -> entry.replicas <- replicas

let pending_votes t ~vm =
  match Int_tbl.find_opt t.vms vm with
  | None -> 0
  | Some entry -> Int_tbl.length entry.pending

let unregister_vm t ~vm = Int_tbl.remove t.vms vm
let forwarded t = Sw_obs.Registry.Counter.value t.m_forwarded
let dropped t = Sw_obs.Registry.Counter.value t.m_dropped
let mismatches t = Sw_obs.Registry.Counter.value t.m_mismatches
let expired_votes t = Sw_obs.Registry.Counter.value t.m_expired
