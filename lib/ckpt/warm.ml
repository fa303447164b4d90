module Run = Sw_workload.Run
module Cloud = Stopwatch.Cloud

type status = Built | Restored

let image_path ~dir ~key =
  Filename.concat dir
    (Printf.sprintf "warm-%s.img" (Digest.to_hex (Digest.string key)))

(* A cached image is advisory: any failure to read or restore it — wrong
   binary, truncation, stale layout — silently falls back to a rebuild,
   which overwrites the carcass. Only a failure to *write* the fresh image
   is an error the caller must see. *)
let load_or_build ~dir ~key ~seed ~shards ~build =
  match Store.ensure_dir dir with
  | Error e -> Error (Image.error_to_string e)
  | Ok () -> (
      let path = image_path ~dir ~key in
      let cached =
        if not (Sys.file_exists path) then None
        else
          match Image.read ~path with
          | Error _ -> None
          | Ok (meta, payload) ->
              if meta.Image.scenario <> key then None
              else begin
                match Cloud.restore payload with
                | Error _ -> None
                | Ok ((_ : Cloud.t), (h : Run.handle)) -> Some h
              end
      in
      match cached with
      | Some h -> Ok (h, Restored)
      | None -> (
          let h = build () in
          let payload = Cloud.checkpoint h.Run.cloud ~extra:h in
          let meta =
            {
              Image.scenario = key;
              seed;
              shards;
              index = 0;
              sim_ns = Int64.of_int (Sw_sim.Engine.now (Cloud.engine h.Run.cloud));
              fingerprint = Bisect.fingerprint h.Run.cloud;
              payload_digest = Digest.string "";
              payload_len = 0;
            }
          in
          match Image.write ~path meta ~payload with
          | Ok () -> Ok (h, Built)
          | Error e -> Error (Image.error_to_string e)))
