(* Allocation guard: minor-heap words allocated, and words promoted to the
   major heap, per fired event on three StopWatch paths — the kv_skew
   workload (first load multiplier, unsharded, 1 s), the victim variant of
   the fig4 attack under StopWatch (0.5 s), both dominated by the VM exit,
   and a four-cell cut of the datacenter scenario (unsharded, 0.5 s), whose
   packets take the replicated path: multicast ingress, proposal exchange,
   egress vote. Promoted words are what the minor collections copy to the
   major heap, the cost that [caml_modify], marking and sweeping then pay.

   Unlike wall-clock throughput, words per event are a deterministic
   function of the binary and its inputs, so the guard can sit close to
   the recorded value: the @perf alias fails when any workload allocates
   or promotes more than its ceiling x 1.10. The slack covers differences
   between compiler versions (CI runs OCaml 5.2; the ceilings were
   recorded on 5.1.1), not noise. Update a ceiling when a change moves
   allocation on purpose, and record both values in CHANGES.md. *)

module Cloud = Stopwatch.Cloud
module Dsl = Sw_workload.Dsl
module Run = Sw_workload.Run
module Scenario = Sw_attack.Scenario
module Report = Sw_runner.Report

(* Minor and promoted words per fired event recorded with OCaml 5.1.1 on
   x86-64, in the release profile (the default build). *)
let kv_skew_ceiling = 6.43
let fig4_victim_ceiling = 18.04
let datacenter_ceiling = 14.03
let kv_skew_promoted_ceiling = 0.114
let fig4_victim_promoted_ceiling = 1.888
let datacenter_promoted_ceiling = 0.535
let slack = 1.10

type words = { minor : float; promoted : float; fired : int }

let promoted_words () = (Gc.quick_stat ()).Gc.promoted_words

(* Minor words allocated while [f] runs, and the words promoted by the
   minor collections during it and by one right after it. The minor heap is
   emptied first, so what earlier code left there is not counted, and the
   count does not depend on where the last collection inside [f] fell.
   [Gc.quick_stat]'s own minor-word count is only updated at a collection,
   so minor words come from [Gc.minor_words]. *)
let measure f =
  Gc.minor ();
  let promoted0 = promoted_words () in
  let minor0 = Gc.minor_words () in
  let fired = f () in
  let minor = Gc.minor_words () -. minor0 in
  Gc.minor ();
  { minor; promoted = promoted_words () -. promoted0; fired }

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
  measure (fun () ->
      Cloud.run h.Run.cloud ~until:h.Run.until;
      Sw_sim.Engine.fired engine - fired0)

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
  measure (fun () ->
      let r = Scenario.run spec in
      Sw_obs.Snapshot.counter r.Scenario.metrics "sim.events.fired")

let run ?pool:_ () =
  Printf.printf
    "Allocation guard (minor and promoted words per fired event; %s profile, \
     OCaml %s):\n%!"
    Build_profile.name Sys.ocaml_version;
  let failed =
    List.filter
      (fun (name, run, ceiling, promoted_ceiling) ->
        let w = run () in
        let per_event x = x /. float_of_int w.fired in
        let minor = per_event w.minor and promoted = per_event w.promoted in
        Printf.printf
          "  %-12s %9d events  %7.2f words/event  (ceiling %.2f)  %6.3f \
           promoted/event  (ceiling %.3f)\n%!"
          name w.fired minor ceiling promoted promoted_ceiling;
        Bench_report.add_perf ("alloc_" ^ name)
          (Report.Obj
             [
               ("events", Report.Int w.fired);
               ("minor_words_per_event", Report.Float minor);
               ("promoted_words_per_event", Report.Float promoted);
             ]);
        minor > ceiling *. slack || promoted > promoted_ceiling *. slack)
      [
        ("kv_skew", kv_skew, kv_skew_ceiling, kv_skew_promoted_ceiling);
        ( "fig4_victim",
          fig4_victim,
          fig4_victim_ceiling,
          fig4_victim_promoted_ceiling );
        ("datacenter", datacenter, datacenter_ceiling, datacenter_promoted_ceiling);
      ]
  in
  if failed <> [] then begin
    Printf.eprintf
      "ALLOCATION REGRESSION: %s allocate or promote more than %.0f%% over the \
       recorded words per event\n%!"
      (String.concat ", " (List.map (fun (n, _, _, _) -> n) failed))
      ((slack -. 1.) *. 100.);
    exit 1
  end
