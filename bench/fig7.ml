(* Fig. 7: PARSEC applications — average runtimes over unmodified Xen vs
   StopWatch, and the disk-interrupt counts the overhead correlates with.
   Paper reference: baseline {171, 177, 1530, 3730, 290} ms, StopWatch
   {350, 401, 3230, 5754, 382} ms, interrupts {31, 38, 183, 293, 27};
   max overhead 2.3x (blackscholes).

   The 5 apps x 2 modes run as one runner fleet, sharded under -j. *)

open Sw_experiments
module Pb = Parsec_bench
module Runner = Sw_runner.Runner
module Report = Sw_runner.Report

let paper_values =
  [
    ("ferret", 171., 350.);
    ("blackscholes", 177., 401.);
    ("canneal", 1530., 3230.);
    ("dedup", 3730., 5754.);
    ("streamcluster", 290., 382.);
  ]

let run ?pool () =
  Tables.section "Fig. 7 — PARSEC application runtimes and disk interrupts";
  let groups =
    List.map
      (fun (profile : Sw_apps.Parsec.profile) ->
        (profile, [ Pb.job ~baseline:true profile; Pb.job ~baseline:false profile ]))
      Sw_apps.Parsec.all_profiles
  in
  let on_event =
    match pool with
    | Some _ ->
        Some (Runner.progress_printer ~total:(2 * List.length groups))
    | None -> None
  in
  let rows =
    List.map
      (fun (profile, outcomes) ->
        match List.map Runner.get outcomes with
        | [ b; s ] -> (profile, b, s)
        | _ -> assert false)
      (Runner.map_groups ?pool ?on_event groups)
  in
  Bench_report.add_metrics
    (Sw_obs.Snapshot.merge_all
       (List.concat_map
          (fun (_, (b : Pb.outcome), (s : Pb.outcome)) ->
            [ b.Pb.metrics; s.Pb.metrics ])
          rows));
  Tables.header ~width:13
    [ "app"; "base ms"; "sw ms"; "ratio"; "ints"; "paper b"; "paper sw"; "viol" ];
  List.iter
    (fun ((profile : Sw_apps.Parsec.profile), (b : Pb.outcome), (s : Pb.outcome)) ->
      let paper_b, paper_s =
        match List.assoc_opt profile.Sw_apps.Parsec.name
                (List.map (fun (n, b, s) -> (n, (b, s))) paper_values)
        with
        | Some (b, s) -> (b, s)
        | None -> (nan, nan)
      in
      Tables.row ~width:13
        [
          profile.Sw_apps.Parsec.name;
          Tables.f0 b.Pb.runtime_ms;
          Tables.f0 s.Pb.runtime_ms;
          Tables.f2 (s.Pb.runtime_ms /. b.Pb.runtime_ms);
          string_of_int s.Pb.disk_interrupts;
          Tables.f0 paper_b;
          Tables.f0 paper_s;
          string_of_int s.Pb.delta_d_violations;
        ])
    rows;
  Bench_report.add "fig7"
    (Report.List
       (List.map
          (fun ((profile : Sw_apps.Parsec.profile), (b : Pb.outcome), (s : Pb.outcome)) ->
            Report.Obj
              [
                ("app", Report.String profile.Sw_apps.Parsec.name);
                ("baseline_ms", Report.Float b.Pb.runtime_ms);
                ("stopwatch_ms", Report.Float s.Pb.runtime_ms);
                ("ratio", Report.Float (s.Pb.runtime_ms /. b.Pb.runtime_ms));
                ("disk_interrupts", Report.Int s.Pb.disk_interrupts);
                ("delta_d_violations", Report.Int s.Pb.delta_d_violations);
              ])
          rows))
