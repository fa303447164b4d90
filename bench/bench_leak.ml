(* `main.exe leak`: the Fig. 4 distinguisher grid through the sw_leak audit.

   Audits examples/fig4.scn (victim vs no-victim, once under StopWatch and
   once under the baseline VMM) through the same pipeline as `stopwatch
   leak`: Run.audits extracts every lineage-attributed observation series
   (Scenario.leak_series) and sweeps the full detector battery over each
   pair. Printed per config: the guest-visible verdict (detectors flagging
   any attacker-observable series) and per-series p-values; the full audit
   lands in BENCH_results.json under "leakage". [-quick] shrinks the runs
   to the CI smoke duration. *)

open Sw_experiments
module Detector = Sw_leak.Detector
module Audit = Sw_leak.Audit

let quick = ref false

let p_cell p =
  if Float.is_nan p then "-"
  else if p < 1e-4 then Printf.sprintf "%.0e" p
  else Printf.sprintf "%.4f" p

let run ?pool () =
  Tables.section
    (if !quick then "Leak audit (fig4 grid, quick)"
     else "Leak audit — fig4 grid through the detector battery");
  let scenario =
    Scenarios.load ~seconds:(if !quick then 2. else 20.) "fig4.scn"
  in
  let registry = Sw_obs.Registry.create () in
  let audits = Sw_workload.Run.audits ?pool ~registry scenario in
  let detector_names =
    List.map (fun (d : Detector.t) -> d.Detector.name) Detector.all
  in
  List.iter
    (fun (a : Audit.t) ->
      Tables.subsection
        (Printf.sprintf "%s: %s" a.Audit.label
           (match Audit.guest_leaking a with
           | [] -> "guest-visible channel clean"
           | ds ->
               Printf.sprintf "guest-visible channel LEAKS (%s)"
                 (String.concat ", " ds)));
      Tables.header ~width:13 ("series" :: detector_names);
      List.iter
        (fun (f : Audit.finding) ->
          Tables.row ~width:13
            (f.Audit.f_key
            :: List.map
                 (fun (r : Detector.report) ->
                   let cell = p_cell r.Detector.p_value in
                   if r.Detector.leak then cell ^ "*" else cell)
                 f.Audit.reports))
        a.Audit.findings;
      print_endline "  (*: detector flags leakage at its threshold)")
    audits;
  Bench_report.add "leakage"
    (Sw_runner.Report.List (List.map Audit.to_report audits));
  Bench_report.add_metrics (Sw_obs.Registry.snapshot registry)
