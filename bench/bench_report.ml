(* Collector for the machine-readable side of a bench run. Figures register
   deterministic result entries — and merged metric snapshots — as they
   complete; [write] assembles them with the (non-deterministic) wall-clock
   timings into BENCH_results.json, the artefact that makes the perf
   trajectory trackable across PRs. *)

module Report = Sw_runner.Report
module Snapshot = Sw_obs.Snapshot

let entries : (string * Report.t) list ref = ref []
let timings : (string * float) list ref = ref []
let metrics : Snapshot.t ref = ref Snapshot.empty
let perf : (string * Report.t) list ref = ref []

let add name json = entries := (name, json) :: !entries
let add_timing name wall_s = timings := (name, wall_s) :: !timings

(* Wall-clock throughput rows (events/sec) from the engine micro-benchmark;
   non-deterministic, so they live in their own top-level "perf" object next
   to "timing", never under "experiments". *)
let add_perf name json = perf := (name, json) :: !perf

(* Merging is associative and exact, so the figures can contribute their
   per-job snapshots in any registration order across a run — the merged
   result depends only on the multiset of snapshots. *)
let add_metrics snapshot = metrics := Snapshot.merge !metrics snapshot

let failures_json fs = Report.List (List.map Report.of_failure fs)

let path = "BENCH_results.json"

let write ~workers ~wall_s =
  let metrics =
    if Snapshot.is_empty !metrics then None else Some !metrics
  in
  let perf = match List.rev !perf with [] -> None | l -> Some l in
  Report.write path
    (Report.bench_file ?metrics ?perf ~workers ~wall_s
       ~timings:(List.rev !timings) ~experiments:(List.rev !entries) ());
  Printf.eprintf "\n[results written to %s]\n%!" path
