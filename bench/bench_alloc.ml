(* Allocation guard: minor-heap words allocated per fired event on three
   StopWatch paths — the kv_skew workload (first load multiplier,
   unsharded, 1 s), the victim variant of the fig4 attack under StopWatch
   (0.5 s), both dominated by the VM exit, and a four-cell cut of the
   datacenter scenario (unsharded, 0.5 s), whose packets take the
   replicated path: multicast ingress, proposal exchange, egress vote.

   Unlike wall-clock throughput, words per event are a deterministic
   function of the binary and its inputs, so the guard can sit close to
   the recorded value: the @perf alias fails when either workload
   allocates more than its ceiling x 1.10. The slack covers differences
   between compiler versions (CI runs OCaml 5.2; the ceilings were
   recorded on 5.1.1), not noise. Update a ceiling when a change moves
   allocation on purpose, and record both values in CHANGES.md. *)

module Cloud = Stopwatch.Cloud
module Dsl = Sw_workload.Dsl
module Run = Sw_workload.Run
module Scenario = Sw_attack.Scenario
module Report = Sw_runner.Report

(* Minor words per fired event recorded with OCaml 5.1.1 on x86-64, in the
   release profile (the default build). *)
let kv_skew_ceiling = 6.52
let fig4_victim_ceiling = 18.63
let datacenter_ceiling = 14.20
let slack = 1.10

(* The first load-multiplier variant of a workload scenario. *)
let first_variant file ~seconds =
  match Scenarios.load ~seconds file with
  | { Dsl.name; kind = Dsl.Workload w } -> (
      match Dsl.workload_variants ~name w with
      | (_, w) :: _ -> w
      | [] -> failwith (file ^ ": no load multiplier"))
  | _ -> failwith (file ^ ": expected kind = \"workload\"")

let workload_words w =
  let h = Run.prepare w in
  let engine = Cloud.engine h.Run.cloud in
  let fired0 = Sw_sim.Engine.fired engine in
  let words0 = Gc.minor_words () in
  Cloud.run h.Run.cloud ~until:h.Run.until;
  let words = Gc.minor_words () -. words0 in
  (words, Sw_sim.Engine.fired engine - fired0)

let kv_skew () = workload_words (first_variant "kv_skew.scn" ~seconds:1.)

(* datacenter.scn cut to four cells (12 hosts, east-west stride 1), one
   shard: every request and east-west flow crosses the multicast ingress,
   the replicas' proposal exchange and the egress vote. *)
let datacenter () =
  let w = first_variant "datacenter.scn" ~seconds:0.5 in
  match w.Dsl.topology with
  | None -> failwith "datacenter.scn: expected a topology"
  | Some topo ->
      workload_words
        {
          w with
          Dsl.topology =
            Some { topo with Dsl.hosts = 12; shards = 1; east_west_stride = 1 };
        }

let fig4_victim () =
  let spec =
    match Scenarios.load ~seconds:0.5 "fig4.scn" with
    | { Dsl.kind = Dsl.Attack a; _ } -> (
        match List.assoc_opt "fig4/sw/victim" (Dsl.attack_specs a) with
        | Some spec -> spec
        | None -> failwith "fig4.scn: no fig4/sw/victim variant")
    | _ -> failwith "fig4.scn: expected kind = \"attack\""
  in
  let words0 = Gc.minor_words () in
  let r = Scenario.run spec in
  let words = Gc.minor_words () -. words0 in
  (words, Sw_obs.Snapshot.counter r.Scenario.metrics "sim.events.fired")

let run ?pool:_ () =
  Printf.printf "Allocation guard (minor words per fired event):\n%!";
  let failed =
    List.filter
      (fun (name, measure, ceiling) ->
        let words, fired = measure () in
        let per_event = words /. float_of_int fired in
        Printf.printf "  %-12s %9d events  %7.2f words/event  (ceiling %.2f)\n%!"
          name fired per_event ceiling;
        Bench_report.add_perf ("alloc_" ^ name)
          (Report.Obj
             [
               ("events", Report.Int fired);
               ("minor_words_per_event", Report.Float per_event);
             ]);
        per_event > ceiling *. slack)
      [
        ("kv_skew", kv_skew, kv_skew_ceiling);
        ("fig4_victim", fig4_victim, fig4_victim_ceiling);
        ("datacenter", datacenter, datacenter_ceiling);
      ]
  in
  if failed <> [] then begin
    Printf.eprintf
      "ALLOCATION REGRESSION: %s allocate more than %.0f%% over the recorded \
       minor words per event\n%!"
      (String.concat ", " (List.map (fun (n, _, _) -> n) failed))
      ((slack -. 1.) *. 100.);
    exit 1
  end
