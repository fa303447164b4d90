(* The example .scn scenarios the benches load. The bench runs from the
   repo root under `dune exec` and from _build/default/bench under
   aliases; probe both, plus the executable's own location for out-of-tree
   invocations. *)

let path file =
  let exe_dir = Filename.dirname Sys.executable_name in
  let candidates =
    [
      Filename.concat "examples" file;
      Filename.concat "../examples" file;
      Filename.concat "../../examples" file;
      Filename.concat exe_dir (Filename.concat "../examples" file);
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith (Printf.sprintf "cannot locate examples/%s" file)

(* Loads, validates and (with [seconds]) re-times an example scenario. *)
let load ?seconds file =
  match
    Result.bind
      (Sw_workload.Dsl.load_file (path file))
      (Sw_workload.Dsl.override ?seconds)
  with
  | Ok t -> t
  | Error e -> failwith e
