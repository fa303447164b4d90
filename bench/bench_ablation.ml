(* Ablations over StopWatch's design parameters (DESIGN.md's ablation index):
   the delta_n / delta_d offsets, the scheduler quantum, the replica count,
   and epoch-based virtual-clock resynchronisation.

   Every sweep point is an independent simulation with a seed fixed in its
   job spec, so the whole ablation grid runs as one runner fleet under -j
   with output identical to the sequential run. *)

open Sw_experiments
module Time = Sw_sim.Time
module Config = Sw_vmm.Config
module Cloud = Stopwatch.Cloud
module Job = Sw_runner.Job
module Runner = Sw_runner.Runner

let http_latency ~config ~seed =
  let o =
    File_transfer.run ~config ~seed ~protocol:File_transfer.Http ~stopwatch:true
      ~size_bytes:102_400 ~runs:2 ()
  in
  (o.File_transfer.elapsed_ms, o.File_transfer.divergences)

(* Default seed of the pre-runner sequential harness, kept bit-compatible. *)
let ft_seed = 0xF16_5L

let delta_n_jobs =
  List.map
    (fun ms ->
      Job.make
        ~key:(Printf.sprintf "ablation/delta_n/%dms" ms)
        (fun ~seed:_ ->
          let config = { Config.default with Config.delta_n = Time.ms ms } in
          let latency, div = http_latency ~config ~seed:ft_seed in
          [ string_of_int ms; Tables.f1 latency; string_of_int div ]))
    [ 2; 5; 10; 20 ]

let delta_d_jobs =
  List.map
    (fun ms ->
      Job.make
        ~key:(Printf.sprintf "ablation/delta_d/%dms" ms)
        (fun ~seed:_ ->
          let config = { Config.default with Config.delta_d = Time.ms ms } in
          let o = Parsec_bench.run ~config ~stopwatch:true Sw_apps.Parsec.ferret in
          [
            string_of_int ms;
            Tables.f0 o.Parsec_bench.runtime_ms;
            string_of_int o.Parsec_bench.delta_d_violations;
          ]))
    [ 4; 8; 12; 20 ]

let quantum_jobs =
  List.map
    (fun us ->
      Job.make
        ~key:(Printf.sprintf "ablation/quantum/%dus" us)
        (fun ~seed:_ ->
          let config = { Config.default with Config.quantum = Time.us us } in
          let latency, div = http_latency ~config ~seed:ft_seed in
          [ string_of_int us; Tables.f1 latency; string_of_int div ]))
    [ 50; 100; 200; 500; 1000 ]

let replica_jobs =
  List.map
    (fun m ->
      Job.make
        ~key:(Printf.sprintf "ablation/replicas/%d" m)
        (fun ~seed:_ ->
          let config = { Config.default with Config.replicas = m } in
          let cloud = Cloud.create ~config ~machines:m () in
          let d =
            Cloud.deploy cloud
              ~on:(List.init m (fun i -> i))
              ~app:(Sw_apps.Http.server ())
          in
          let client = Cloud.add_host cloud () in
          let tcp = Sw_apps.Tcp_host.attach client () in
          let result = ref nan in
          Sw_apps.Http.download tcp ~dst:(Cloud.vm_address d) ~file:1 ~size:102_400
            ~on_done:(fun ~elapsed_ms -> result := elapsed_ms)
            ();
          Cloud.run cloud ~until:(Time.s 30);
          [ string_of_int m; Tables.f1 !result ]))
    [ 1; 3; 5; 7 ]

let hardware_spread_jobs =
  List.map
    (fun spread ->
      Job.make
        ~key:(Printf.sprintf "ablation/spread/%.3f" spread)
        (fun ~seed:_ ->
          let cloud =
            Cloud.create ~seed:31L ~rate_spread:spread ~clock_spread:(Time.ms 1)
              ~machines:3 ()
          in
          let d =
            Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:(Sw_apps.Probe.receiver ())
          in
          let client = Cloud.add_host cloud () in
          let rec ping n =
            if n <= 100 then
              Stopwatch.Host.after client (Time.ms 50) (fun () ->
                  Stopwatch.Host.send client ~dst:(Cloud.vm_address d) ~size:100
                    (Sw_net.Packet.App (Sw_net.Msg.Probe_ping n));
                  ping (n + 1))
          in
          ping 1;
          Cloud.run cloud ~until:(Time.s 5);
          [
            Printf.sprintf "%.1f" (spread *. 100.);
            string_of_int (Cloud.skew_blocks d);
            string_of_int (Cloud.divergences d);
          ]))
    [ 0.0; 0.001; 0.01; 0.03 ]

(* A guest whose virtual clock runs 10% fast drifts from real time without
   resynchronisation; the epoch protocol pulls the slope back toward the
   median machine's real rate (Sec. IV-A). *)
let epoch_drift epoch =
  let config =
    {
      Config.default with
      Config.slope_ns_per_branch = 1.1;
      epoch;
    }
  in
  let cloud = Cloud.create ~config ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:Sw_vm.App.idle in
  Cloud.run cloud ~until:(Time.s 5);
  let inst = List.hd (Cloud.replicas d) in
  let virt = Sw_vm.Guest.virt_now (Sw_vmm.Vmm.guest inst) in
  let drift_ms = Float.abs (Time.to_float_ms (Time.sub virt (Time.s 5))) in
  (drift_ms, Sw_vmm.Replica_group.epochs_resolved (Cloud.group d))

let epoch_jobs =
  Job.make ~key:"ablation/epoch/off" (fun ~seed:_ ->
      let drift, _ = epoch_drift None in
      [ "off"; Tables.f1 drift; "0" ])
  :: List.map
       (fun interval ->
         Job.make
           ~key:(Printf.sprintf "ablation/epoch/%d" interval)
           (fun ~seed:_ ->
             let d, epochs =
               epoch_drift
                 (Some
                    {
                      Config.interval_branches = interval;
                      slope_l = 0.9;
                      slope_u = 1.1;
                    })
             in
             [ string_of_int interval; Tables.f1 d; string_of_int epochs ]))
       [ 100_000_000; 500_000_000; 2_000_000_000 ]

let sweeps =
  [
    ( "delta_n sweep (HTTP 100 KB latency under StopWatch)",
      [ "delta_n (ms)"; "latency ms"; "divergences" ],
      14,
      delta_n_jobs );
    ( "delta_d sweep (ferret runtime under StopWatch)",
      [ "delta_d (ms)"; "runtime ms"; "dd violations" ],
      14,
      delta_d_jobs );
    ( "scheduler quantum sweep (HTTP 100 KB latency under StopWatch)",
      [ "quantum (us)"; "latency ms"; "divergences" ],
      14,
      quantum_jobs );
    ( "replica count sweep (HTTP 100 KB latency)",
      [ "replicas"; "latency ms" ],
      14,
      replica_jobs );
    ( "machine speed spread (echo RTT; skew limiter activity over 5 s)",
      [ "spread %"; "skew blocks"; "divergences" ],
      14,
      hardware_spread_jobs );
    ( "epoch resynchronisation (guest clock 10% fast, 5 s run)",
      [ "epoch I (branches)"; "|virt - real| ms"; "epochs" ],
      20,
      epoch_jobs );
  ]

let run ?pool () =
  Tables.section "Ablations";
  let groups = List.map (fun (title, _, _, jobs) -> (title, jobs)) sweeps in
  let total = List.fold_left (fun n (_, js) -> n + List.length js) 0 groups in
  let on_event =
    match pool with
    | Some _ -> Some (Runner.progress_printer ~total ())
    | None -> None
  in
  let collected = Runner.map_groups ?pool ?on_event groups in
  List.iter
    (fun (title, header, width, _) ->
      Tables.subsection title;
      Tables.header ~width header;
      List.iter
        (fun row -> Tables.row ~width (Runner.get row))
        (List.assoc title collected))
    sweeps
