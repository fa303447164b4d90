module Time = Sw_sim.Time
module Dsl = Sw_workload.Dsl
module Run = Sw_workload.Run
module Cloud = Stopwatch.Cloud

type event =
  | Resumed of { index : int; sim_ns : Time.t }
  | Checkpointed of { index : int; sim_ns : Time.t; path : string; bytes : int }
  | Skipped_image of { path : string; error : Image.error }
  | Leak_sampled of { index : int; sim_ns : Time.t; leak : bool }
  | Finished of { sim_ns : Time.t }

type error =
  | Wrong_scenario of { image : string; expected : string }
  | Unloadable of { path : string; reason : string }
  | Image_error of Image.error

let pp_error fmt = function
  | Wrong_scenario { image; expected } ->
      Format.fprintf fmt
        "checkpoint directory belongs to scenario %s, not %s" image expected
  | Unloadable { path; reason } ->
      Format.fprintf fmt "cannot load %s in this binary: %s" path reason
  | Image_error e -> Image.pp_error fmt e

type outcome = {
  result : Run.result;
  sim_ns : Time.t;
  checkpoints_written : int;
  resumed_from : int option;
  images_skipped : int;
  leak_samples : (Time.t * Sw_leak.Audit.t) list;
}

exception Killed of { checkpoints : int; sim_ns : Time.t }

let ( let* ) = Result.bind

let now_ns cloud = Sw_sim.Engine.now (Cloud.engine cloud)

let run ~scenario ~dir ~every ?kill_after ?keep
    ?(on_event = fun (_ : event) -> ()) () =
  let w =
    match scenario.Dsl.kind with
    | Dsl.Workload w -> w
    | Dsl.Attack _ -> invalid_arg "Soak.run: scenario is not a workload"
  in
  if Time.compare every Time.zero <= 0 then
    invalid_arg "Soak.run: checkpoint interval must be positive";
  (* The scenario identity stamped into (and checked against) every image. *)
  let sid =
    Printf.sprintf "%s:%s:shards=%d" scenario.Dsl.name
      (Digest.to_hex (Digest.string (Dsl.print scenario)))
      (Dsl.shards w)
  in
  let* () =
    Result.map_error (fun e -> Image_error e) (Store.ensure_dir dir)
  in
  (* Recover: newest fully-verified image, or a fresh handle. *)
  let* (handle : Run.handle), first_index, resumed_from, images_skipped =
    match Store.latest_valid dir with
    | None -> Ok (Run.prepare w, 0, None, 0)
    | Some (entry, payload, rejected) ->
        List.iter
          (fun (path, error) -> on_event (Skipped_image { path; error }))
          rejected;
        if entry.Store.meta.Image.scenario <> sid then
          Error
            (Wrong_scenario
               { image = entry.Store.meta.Image.scenario; expected = sid })
        else begin
          match Cloud.restore payload with
          | Error e ->
              Error
                (Unloadable
                   {
                     path = entry.Store.path;
                     reason = Format.asprintf "%a" Cloud.pp_restore_error e;
                   })
          | Ok ((_cloud : Cloud.t), (h : Run.handle)) ->
              on_event
                (Resumed
                   {
                     index = entry.Store.index;
                     sim_ns = Int64.to_int entry.Store.meta.Image.sim_ns;
                   });
              Ok
                ( h,
                  entry.Store.index + 1,
                  Some entry.Store.index,
                  List.length rejected )
        end
  in
  let cloud = handle.Run.cloud in
  let until = handle.Run.until in
  let written = ref 0 in
  let index = ref first_index in
  let leak_samples = ref [] in
  (* One leak sample per checkpoint grid point: a split-half drift audit of
     every observation series accumulated so far. Empty unless the scenario
     set [leak_audit]. Recomputed on resume exactly as in a straight run
     (the series live in the checkpointed cloud), so the outcome stays
     byte-identical across interruptions. *)
  let sample_leak ~grid_index ~sim_ns =
    match handle.Run.observe () with
    | [] -> ()
    | series ->
        let audit =
          Sw_leak.Audit.split_half
            ~label:(Printf.sprintf "soak/%d" grid_index)
            series
        in
        leak_samples := (sim_ns, audit) :: !leak_samples;
        on_event
          (Leak_sampled
             { index = grid_index; sim_ns; leak = Sw_leak.Audit.leak audit })
  in
  (* The checkpoint grid is absolute simulated time (every, 2*every, ...):
     a resumed run schedules the same capture instants as an uninterrupted
     one, so their timelines line up image for image. *)
  let rec drive () =
    let now = now_ns cloud in
    let next_grid =
      Time.mul_int every (Time.div_int now every + 1)
    in
    if Time.compare next_grid until >= 0 then Cloud.run cloud ~until
    else begin
      Cloud.run cloud ~until:next_grid;
      let sim_ns = now_ns cloud in
      let payload = Cloud.checkpoint cloud ~extra:handle in
      let path = Store.path dir ~index:!index in
      let meta =
        {
          Image.scenario = sid;
          seed = w.Dsl.seed;
          shards = Dsl.shards w;
          index = !index;
          sim_ns = Int64.of_int sim_ns;
          fingerprint = Bisect.fingerprint cloud;
          payload_digest = Digest.string "";
          payload_len = 0;
        }
      in
      (match Image.write ~path meta ~payload with
      | Ok () -> ()
      | Error e -> raise (Sys_error (Image.error_to_string e)));
      incr written;
      on_event
        (Checkpointed
           { index = !index; sim_ns; path; bytes = String.length payload });
      sample_leak ~grid_index:!index ~sim_ns;
      incr index;
      (match keep with Some k -> Store.prune dir ~keep:k | None -> ());
      (match kill_after with
      | Some n when !written >= n ->
          raise (Killed { checkpoints = !written; sim_ns })
      | _ -> ());
      drive ()
    end
  in
  drive ();
  let sim_ns = now_ns cloud in
  on_event (Finished { sim_ns });
  Ok
    {
      result = handle.Run.finish ();
      sim_ns;
      checkpoints_written = !written;
      resumed_from;
      images_skipped;
      leak_samples = List.rev !leak_samples;
    }
