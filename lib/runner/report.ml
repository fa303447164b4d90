type t = Sw_obs.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let to_string = Sw_obs.Json.to_string

let write path json =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string json);
      output_char oc '\n')

let of_summary s =
  let module Summary = Sw_sim.Summary in
  let bound f = if Summary.count s = 0 then Null else Float (f s) in
  Obj
    [
      ("count", Int (Summary.count s));
      ("mean", Float (Summary.mean s));
      ("stddev", Float (Summary.stddev s));
      ("min", bound Summary.min);
      ("max", bound Summary.max);
      ("total", Float (Summary.total s));
    ]

let of_failure (f : Runner.failure) =
  Obj [ ("key", String f.Runner.key); ("exn", String f.Runner.exn) ]

let of_metrics snapshot = Sw_obs.Export.to_json snapshot

let bench_file ?metrics ?perf ~workers ~wall_s ~timings ~experiments () =
  let metrics_field =
    match metrics with
    | None -> []
    | Some snapshot -> [ ("metrics", of_metrics snapshot) ]
  in
  let perf_field =
    match perf with None -> [] | Some rows -> [ ("perf", Obj rows) ]
  in
  Obj
    ([
       ("schema", String "stopwatch-bench/1");
       ("workers", Int workers);
       ("experiments", Obj experiments);
     ]
    @ metrics_field @ perf_field
    @ [
        ( "timing",
          Obj
            (("total_wall_s", Float wall_s)
            :: List.map (fun (name, s) -> (name, Float s)) timings) );
      ])
