module Registry = Sw_obs.Registry
module Report = Sw_runner.Report

type series = { key : string; null : float array; alt : float array }

type finding = {
  f_key : string;
  n_null : int;
  n_alt : int;
  reports : Detector.report list;
  leaking : string list;
}

type t = { label : string; findings : finding list }

let run ~registry ~label series =
  let bump path n = Registry.Counter.add (Registry.counter registry path) n in
  bump "leak.detector.series" (List.length series);
  let findings =
    List.map
      (fun s ->
        let reports =
          List.map
            (fun (d : Detector.t) -> d.Detector.verdict ~null:s.null ~alt:s.alt)
            Detector.all
        in
        bump "leak.detector.verdicts" (List.length reports);
        List.iter
          (fun (r : Detector.report) ->
            if Detector.skipped r then
              bump "leak.detector.samples_dropped"
                (r.Detector.n_null + r.Detector.n_alt))
          reports;
        let leaking =
          List.filter_map
            (fun (r : Detector.report) ->
              if r.Detector.leak then Some r.Detector.detector else None)
            reports
        in
        {
          f_key = s.key;
          n_null = Array.length s.null;
          n_alt = Array.length s.alt;
          reports;
          leaking;
        })
      series
  in
  { label; findings }

let pair ~null ~alt =
  List.filter_map
    (fun (key, null_xs) ->
      Option.map
        (fun alt_xs -> { key; null = null_xs; alt = alt_xs })
        (List.assoc_opt key alt))
    null

let split_half ~label series =
  let halves =
    List.filter_map
      (fun (key, xs) ->
        let n = Array.length xs in
        if n < 2 then None
        else begin
          let h = n / 2 in
          Some { key; null = Array.sub xs 0 h; alt = Array.sub xs h (n - h) }
        end)
      series
  in
  (* The drift probe's detector counters go nowhere. *)
  run ~registry:(Registry.create ()) ~label halves

let attribution t =
  List.filter_map
    (fun f -> if f.leaking = [] then None else Some (f.f_key, f.leaking))
    t.findings

let guest_leaking t =
  List.sort_uniq compare
    (List.concat_map
       (fun f ->
         if String.starts_with ~prefix:"attacker/" f.f_key then f.leaking
         else [])
       t.findings)

let leak t = List.exists (fun f -> f.leaking <> []) t.findings

let report_of_verdict (r : Detector.report) =
  Report.Obj
    [
      ("name", Report.String r.Detector.detector);
      ("statistic", Report.Float r.Detector.statistic);
      ("p_value", Report.Float r.Detector.p_value);
      ("effect", Report.Float r.Detector.effect);
      ("leak", Report.Bool r.Detector.leak);
      ( "observations_needed",
        Report.List
          (List.map
             (fun (c, n) -> Report.List [ Report.Float c; Report.Float n ])
             r.Detector.observations_at) );
    ]

let report_of_finding f =
  Report.Obj
    [
      ("key", Report.String f.f_key);
      ("n_null", Report.Int f.n_null);
      ("n_alt", Report.Int f.n_alt);
      ("leak", Report.Bool (f.leaking <> []));
      ("leaking_detectors", Report.List (List.map (fun d -> Report.String d) f.leaking));
      ("detectors", Report.List (List.map report_of_verdict f.reports));
    ]

let to_report t =
  Report.Obj
    [
      ("label", Report.String t.label);
      ("leak", Report.Bool (leak t));
      ( "attribution",
        Report.List
          (List.map
             (fun (key, ds) ->
               Report.Obj
                 [
                   ("series", Report.String key);
                   ("detectors", Report.List (List.map (fun d -> Report.String d) ds));
                 ])
             (attribution t)) );
      ("series", Report.List (List.map report_of_finding t.findings));
    ]
