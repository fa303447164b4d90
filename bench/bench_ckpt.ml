(* Checkpoint/restore cost canary: capture and restore a mid-flight
   scenario at a few sizes, report image bytes and wall time for each
   phase, and assert the determinism contract the whole subsystem rests on
   (the restored run finishes byte-identical to the uninterrupted one).

   The numbers are wall-clock and machine-dependent; what the bench pins
   is that a checkpoint stays (a) cheap relative to re-simulation and
   (b) correct. *)

module Time = Sw_sim.Time
module Cloud = Stopwatch.Cloud
module Dsl = Sw_workload.Dsl
module Run = Sw_workload.Run
module Export = Sw_obs.Export
open Sw_experiments

let workload duration_ms =
  match
    Scenarios.load ~seconds:(float_of_int duration_ms /. 1e3) "kv_skew.scn"
  with
  | { Dsl.kind = Dsl.Workload w; _ } -> { w with Dsl.load_multipliers = [ 1. ] }
  | _ -> failwith "kv_skew.scn: expected kind = \"workload\""

let bytes_of (r : Run.result) = Export.to_json_string r.Run.metrics

let run () =
  Tables.section "Checkpoint/restore: capture cost vs simulation state size";
  Tables.header ~width:12
    [ "sim ms"; "image KB"; "ckpt ms"; "restore ms"; "resume" ];
  let rows =
    List.map
      (fun duration_ms ->
        let w = workload duration_ms in
        let straight =
          let h = Run.prepare w in
          Cloud.run h.Run.cloud ~until:h.Run.until;
          bytes_of (h.Run.finish ())
        in
        let h = Run.prepare w in
        Cloud.run h.Run.cloud ~until:(Time.scale h.Run.until 0.5);
        let t0 = Sw_obs.Profile.now_ns () in
        let image = Cloud.checkpoint h.Run.cloud ~extra:h in
        let ckpt_ms = float_of_int (Sw_obs.Profile.now_ns () - t0) /. 1e6 in
        let t1 = Sw_obs.Profile.now_ns () in
        let h' =
          match Cloud.restore image with
          | Ok (_, (h' : Run.handle)) -> h'
          | Error e ->
              failwith (Format.asprintf "%a" Cloud.pp_restore_error e)
        in
        let restore_ms = float_of_int (Sw_obs.Profile.now_ns () - t1) /. 1e6 in
        Cloud.run h'.Run.cloud ~until:h'.Run.until;
        let resumed = bytes_of (h'.Run.finish ()) in
        if resumed <> straight then
          failwith
            (Printf.sprintf
               "ckpt: resumed %d ms run diverged from the straight one"
               duration_ms);
        let kb = float_of_int (String.length image) /. 1024. in
        Tables.row ~width:12
          [
            string_of_int duration_ms; Tables.f1 kb; Tables.f2 ckpt_ms;
            Tables.f2 restore_ms; "exact";
          ];
        (duration_ms, kb, ckpt_ms, restore_ms))
      [ 250; 1000; 2000 ]
  in
  Bench_report.add "ckpt"
    (Sw_runner.Report.Obj
       (List.map
          (fun (ms, kb, ckpt_ms, restore_ms) ->
            ( Printf.sprintf "sim_%dms" ms,
              Sw_runner.Report.Obj
                [
                  ("image_kb", Sw_runner.Report.Float kb);
                  ("checkpoint_ms", Sw_runner.Report.Float ckpt_ms);
                  ("restore_ms", Sw_runner.Report.Float restore_ms);
                ] ))
          rows))
