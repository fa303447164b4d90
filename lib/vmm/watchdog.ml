module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Event = Sw_obs.Event

(* Per-member suspicion state: consecutive suspicious sweeps observed. *)
type t = {
  engine : Engine.t;
  group : Replica_group.t;
  params : Config.watchdog;
  suspicions : (int, int) Hashtbl.t;
}

let suspicion t id =
  Option.value (Hashtbl.find_opt t.suspicions id) ~default:0

let sweep t =
  let now = Engine.now t.engine in
  let vm = Replica_group.vm t.group in
  for id = 0 to (Replica_group.config t.group).Config.replicas - 1 do
    match Replica_group.member_by_id t.group id with
    | None -> ()
    | Some m ->
        if Replica_group.active m then begin
          let silent = Time.sub now (Replica_group.last_seen m) in
          if Time.(silent > t.params.Config.timeout) then begin
            let attempt = suspicion t id + 1 in
            Hashtbl.replace t.suspicions id attempt;
            if Engine.tracing t.engine then
              Engine.emit t.engine
                (Event.Degrade_suspected { vm; replica = id; attempt });
            (* Never eject the last active member: a one-member group still
               delivers, and a future restart needs a live resync source. *)
            if
              attempt > t.params.Config.retries
              && Replica_group.active_count t.group > 1
            then begin
              Replica_group.eject t.group m ~now;
              Hashtbl.remove t.suspicions id;
              if Engine.tracing t.engine then
                Engine.emit t.engine
                  (Event.Degrade_ejected
                     { vm; replica = id; quorum = Replica_group.quorum t.group })
            end
          end
          else Hashtbl.remove t.suspicions id
        end
        else
          (* Reinstated members return with a fresh [last_seen]; ejected ones
             carry no suspicion state while out of the group. *)
          Hashtbl.remove t.suspicions id
  done

let create engine group =
  let config = Replica_group.config group in
  match config.Config.watchdog with
  | None -> invalid_arg "Watchdog.create: Config.watchdog is not set"
  | Some params ->
      let t = { engine; group; params; suspicions = Hashtbl.create 8 } in
      let kind = Engine.kind engine "vmm.watchdog" in
      let rec tick () =
        ignore
          (Engine.schedule_after ~kind engine
             params.Config.period (fun () ->
               sweep t;
               tick ()))
      in
      tick ();
      t
