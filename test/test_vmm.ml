(* Tests for the VMM layer: configuration validation, the machine's Dom0
   FIFO and NIC, replica-group skew limiting, epoch resynchronisation, the
   median helper, and a replica reintegrated with disk requests in flight. *)

module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Config = Sw_vmm.Config
module Machine = Sw_vmm.Machine
module Rg = Sw_vmm.Replica_group

(* --- Config ------------------------------------------------------------------ *)

let expect_invalid name f =
  Alcotest.check_raises name (Invalid_argument "x") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_config_validate () =
  Config.validate Config.default;
  expect_invalid "even replicas" (fun () ->
      Config.validate { Config.default with Config.replicas = 2 });
  expect_invalid "zero quantum" (fun () ->
      Config.validate { Config.default with Config.quantum = Time.zero });
  expect_invalid "negative delta_n" (fun () ->
      Config.validate { Config.default with Config.delta_n = Time.zero });
  expect_invalid "bad epoch bounds" (fun () ->
      Config.validate
        {
          Config.default with
          Config.epoch =
            Some { Config.interval_branches = 1000; slope_l = 2.; slope_u = 1. };
        })

let test_slice_branches () =
  let c = { Config.default with Config.quantum = Time.us 200 } in
  Alcotest.(check int) "200k branches" 200_000 (Config.slice_branches c)

(* --- Machine ------------------------------------------------------------------- *)

let machine_setup () =
  let engine = Engine.create () in
  let net = Sw_net.Network.create engine ~default:Sw_net.Network.lan in
  let mach = Machine.create engine net ~id:0 ~config:Config.default () in
  (engine, net, mach)

let test_dom0_fifo () =
  let engine, _, mach = machine_setup () in
  let log = ref [] in
  Machine.dom0_execute mach ~cost:(Time.ms 1) (fun () ->
      log := (1, Engine.now engine) :: !log);
  Machine.dom0_execute mach ~cost:(Time.ms 2) (fun () ->
      log := (2, Engine.now engine) :: !log);
  Engine.run engine;
  Alcotest.(check (list (pair int int)))
    "fifo completion"
    [ (1, Time.ms 1); (2, Time.ms 3) ]
    (List.rev !log);
  Alcotest.(check int) "total accounted" (Time.ms 3)
    (Metric.counter (Sw_obs.Registry.snapshot (Engine.metrics engine)) "vmm.0.dom0_ns")

let test_slice_loop () =
  let engine, _, mach = machine_setup () in
  let slices = ref 0 in
  let running = ref true in
  Machine.attach mach
    {
      Machine.name = "test";
      runnable = (fun () -> !running);
      on_slice_end = (fun () -> incr slices);
    };
  Engine.run ~until:(Time.ms 1) engine;
  (* 1 ms / 200 us quantum = 5 slices. *)
  Alcotest.(check int) "five slices" 5 !slices;
  (* Block the resident; the already-scheduled slice completes, then the
     loop parks. *)
  running := false;
  Engine.run ~until:(Time.ms 2) engine;
  Alcotest.(check int) "parked after in-flight slice" 6 !slices;
  (* Wake resumes. *)
  running := true;
  Machine.wake mach;
  Engine.run ~until:(Time.ms 3) engine;
  Alcotest.(check int) "resumed" 11 !slices

let test_independent_residents () =
  (* Each guest has its own core: two residents each get full-rate slices. *)
  let engine, _, mach = machine_setup () in
  let a = ref 0 and b = ref 0 in
  let attach counter =
    Machine.attach mach
      {
        Machine.name = "r";
        runnable = (fun () -> true);
        on_slice_end = (fun () -> incr counter);
      }
  in
  attach a;
  attach b;
  Engine.run ~until:(Time.ms 1) engine;
  Alcotest.(check int) "a full rate" 5 !a;
  Alcotest.(check int) "b full rate" 5 !b

let test_dma_engine_fifo () =
  let engine, _, mach = machine_setup () in
  (* Default engine: 8 Gb/s -> 1 MB transfers in 1 ms, FIFO. *)
  let finishes = ref [] in
  for i = 1 to 2 do
    Machine.dma_execute mach ~bytes:1_000_000 (fun () ->
        finishes := (i, Engine.now engine) :: !finishes)
  done;
  Engine.run engine;
  Alcotest.(check (list (pair int int)))
    "serialised transfers"
    [ (1, Time.ms 1); (2, Time.ms 2) ]
    (List.rev !finishes)

let test_transmit_reaches_network () =
  let engine, net, mach = machine_setup () in
  let got = ref 0 in
  Sw_net.Network.register net (Sw_net.Address.Host 1) (fun _ -> incr got);
  Machine.transmit mach
    (Sw_net.Packet.make ~src:(Machine.address mach) ~dst:(Sw_net.Address.Host 1)
       ~size:100 ~seq:1 Sw_net.Packet.Empty);
  Engine.run engine;
  Alcotest.(check int) "delivered" 1 !got

(* --- Replica group ---------------------------------------------------------------- *)

let add_member ?(wake = fun () -> ()) ?(apply = fun ~at_instr:_ ~slope_ns_per_branch:_ -> ())
    ?(send = fun ~epoch:_ ~d:_ ~r:_ -> ()) group ~machine =
  Rg.add_member group ~machine ~wake ~apply_slope:apply ~send_report:send

let test_median_time () =
  Alcotest.(check int) "median of 3" (Time.ms 2)
    (Rg.median_time [| Time.ms 3; Time.ms 1; Time.ms 2 |]);
  Alcotest.(check int) "median of 5" (Time.ms 4)
    (Rg.median_time [| Time.ms 9; Time.ms 1; Time.ms 4; Time.ms 5; Time.ms 2 |]);
  expect_invalid "even count" (fun () ->
      ignore (Rg.median_time [| Time.ms 1; Time.ms 2 |]))

let test_skew_blocks_fastest () =
  let group = Rg.create ~vm:0 ~config:Config.default ~mode:Rg.Stopwatch () in
  let woken = ref 0 in
  let m0 = add_member group ~machine:0 in
  let m1 = add_member group ~machine:1 in
  let m2 = add_member group ~machine:2 ~wake:(fun () -> incr woken) in
  (* Note: the skew bound is 2 ms. m2 races ahead by 5 ms. *)
  Rg.note_exit group m0 ~now:(Time.ms 1) ~virt:(Time.ms 1) ~instr:1_000_000;
  Rg.note_exit group m1 ~now:(Time.ms 1) ~virt:(Time.ms 1) ~instr:1_000_000;
  Rg.note_exit group m2 ~now:(Time.ms 6) ~virt:(Time.ms 6) ~instr:6_000_000;
  Alcotest.(check bool) "fastest blocked" true (Rg.blocked group m2);
  Alcotest.(check bool) "others run" false (Rg.blocked group m0);
  (* The second replica catches up; the fastest unblocks (and is woken). *)
  Rg.note_exit group m1 ~now:(Time.ms 5) ~virt:(Time.ms 5) ~instr:5_000_000;
  Alcotest.(check bool) "unblocked" false (Rg.blocked group m2);
  Alcotest.(check int) "woken once" 1 !woken

let test_skew_ties_do_not_block () =
  let group = Rg.create ~vm:0 ~config:Config.default ~mode:Rg.Stopwatch () in
  let m0 = add_member group ~machine:0 in
  let m1 = add_member group ~machine:1 in
  let m2 = add_member group ~machine:2 in
  Rg.note_exit group m0 ~now:(Time.ms 9) ~virt:(Time.ms 9) ~instr:1;
  Rg.note_exit group m1 ~now:(Time.ms 9) ~virt:(Time.ms 9) ~instr:1;
  Rg.note_exit group m2 ~now:(Time.ms 1) ~virt:(Time.ms 1) ~instr:1;
  (* Two fastest are tied: nobody may be blocked, however far the third lags. *)
  Alcotest.(check bool) "m0 runs" false (Rg.blocked group m0);
  Alcotest.(check bool) "m1 runs" false (Rg.blocked group m1);
  Alcotest.(check bool) "m2 runs" false (Rg.blocked group m2)

let test_baseline_mode_inert () =
  let config = { Config.default with Config.replicas = 1 } in
  let group = Rg.create ~vm:0 ~config ~mode:Rg.Baseline () in
  let m0 = add_member group ~machine:0 in
  Rg.note_exit group m0 ~now:(Time.ms 1) ~virt:(Time.ms 99) ~instr:1;
  Alcotest.(check bool) "never blocked" false (Rg.blocked group m0)

let epoch_config =
  {
    Config.default with
    Config.epoch =
      Some { Config.interval_branches = 1_000_000; slope_l = 0.5; slope_u = 2.0 };
  }

let test_epoch_resolution () =
  let group = Rg.create ~vm:0 ~config:epoch_config ~mode:Rg.Stopwatch () in
  let applied = ref [] in
  let sent = ref [] in
  let mk machine =
    add_member group ~machine
      ~apply:(fun ~at_instr ~slope_ns_per_branch ->
        applied := (machine, at_instr, slope_ns_per_branch) :: !applied)
      ~send:(fun ~epoch ~d ~r -> sent := (machine, epoch, d, r) :: !sent)
  in
  let m0 = mk 0 and m1 = mk 1 and m2 = mk 2 in
  (* All replicas cross the first boundary (1e6 branches) at slightly
     different real times; virt is 1 ms for all (slope 1). *)
  Rg.note_exit group m0 ~now:(Time.ms 1) ~virt:(Time.ms 1) ~instr:1_000_000;
  Alcotest.(check bool) "m0 epoch-blocked" true (Rg.blocked group m0);
  Alcotest.(check int) "m0 reported" 1 (List.length !sent);
  (* Deliver m0's report to the peers as the network would. *)
  let deliver_all () =
    List.iter
      (fun (from_machine, epoch, d, r) ->
        List.iter
          (fun (m, machine) ->
            if machine <> from_machine then
              Rg.receive_report group ~at:m ~from_replica:from_machine ~epoch ~d ~r)
          [ (m0, 0); (m1, 1); (m2, 2) ])
      !sent
  in
  Rg.note_exit group m1 ~now:(Time.of_float_ms 1.1) ~virt:(Time.ms 1)
    ~instr:1_000_000;
  Rg.note_exit group m2 ~now:(Time.of_float_ms 0.9) ~virt:(Time.ms 1)
    ~instr:1_000_000;
  deliver_all ();
  (* Everyone has all three reports: epoch 0 resolves everywhere with the
     same slope, applied at the same instr. *)
  Alcotest.(check int) "all applied" 3 (List.length !applied);
  (match !applied with
  | (_, i1, s1) :: rest ->
      List.iter
        (fun (_, i, s) ->
          Alcotest.(check int) "same instr" i1 i;
          Alcotest.(check (float 1e-12)) "same slope" s1 s)
        rest
  | [] -> Alcotest.fail "no applications");
  Alcotest.(check bool) "unblocked" false (Rg.blocked group m0);
  Alcotest.(check int) "epoch advanced" 1 (Rg.epochs_resolved group);
  (* The median report is m0's (now = 1 ms): D* = 1 ms over 1e6 branches ->
     raw slope (Rstar - virt + Dstar) / I = (1 - 1 + 1) ms / 1e6 = 1.0 ns/branch. *)
  match !applied with
  | (_, _, s) :: _ -> Alcotest.(check (float 1e-9)) "slope value" 1.0 s
  | [] -> ()

let test_epoch_out_of_order_reports () =
  (* A fast peer's epoch-1 report arriving while we are still in epoch 0 must
     be buffered, not dropped. *)
  let group = Rg.create ~vm:0 ~config:epoch_config ~mode:Rg.Stopwatch () in
  let m0 = add_member group ~machine:0 in
  let _m1 = add_member group ~machine:1 in
  let _m2 = add_member group ~machine:2 in
  Rg.receive_report group ~at:m0 ~from_replica:1 ~epoch:1 ~d:(Time.ms 1)
    ~r:(Time.ms 2);
  (* Still fine: resolve epoch 0 normally later; the buffered report will be
     used when m0 reaches epoch 1. No assertion beyond "no exception and not
     resolved yet". *)
  Alcotest.(check int) "nothing resolved" 0 (Rg.epochs_resolved group)

let test_divergence_counter () =
  let metrics = Sw_obs.Registry.create () in
  let group =
    Rg.create ~metrics ~vm:0 ~config:Config.default ~mode:Rg.Stopwatch ()
  in
  let divergences () =
    Metric.counter (Sw_obs.Registry.snapshot metrics) "vm0.divergences"
  in
  Alcotest.(check int) "zero" 0 (divergences ());
  Rg.record_divergence group;
  Rg.record_divergence group;
  Alcotest.(check int) "counted" 2 (divergences ())

let test_group_full () =
  let group = Rg.create ~vm:0 ~config:Config.default ~mode:Rg.Stopwatch () in
  ignore (add_member group ~machine:0);
  ignore (add_member group ~machine:1);
  ignore (add_member group ~machine:2);
  Alcotest.(check bool) "complete" true (Rg.complete group);
  expect_invalid "overfull" (fun () -> ignore (add_member group ~machine:3))

(* --- Reintegration with disk requests in flight ---------------------------- *)

(* Once a 20 ms timer fires, the guest reads with tags 9, 7, 7, 3, computing
   between the reads, then stays busy so that every injection lands at the
   first exit after its virtual delivery slot. Replica 1 crashes before the
   timer and so issues none of the reads. It is reintegrated from replica 0
   when the read of 9 has completed and the other three are in flight; the
   in-flight table walks those as 7, 7, 3 with the later 7 first, so the
   walk is not issue order. Replica 1 must then inject replica 0's Disk_done
   events, both 7s included, at replica 0's virtual times. *)
let test_reintegrate_mirrors_disk_in_flight () =
  let config = { Config.default with Config.replay_log = true } in
  let cloud = Stopwatch.Cloud.create ~config ~machines:3 () in
  let app =
    Sw_vm.App.stateful ~init:() ~handle:(fun () ~virt_now:_ -> function
      | Sw_vm.App.Boot ->
          ((), [ Sw_vm.App.Set_timer { after = Time.ms 20; tag = 0 } ])
      | Sw_vm.App.Timer _ ->
          let read ~sequential tag =
            Sw_vm.App.Disk_read { bytes = 65_536; sequential; tag }
          in
          let compute n = Sw_vm.App.Compute n in
          ( (),
            [
              read ~sequential:false 9;
              compute 100_000;
              read ~sequential:true 7;
              compute 100_000;
              read ~sequential:true 7;
              compute 100_000;
              read ~sequential:true 3;
              compute 50_000_000;
            ] )
      | _ -> ((), []))
  in
  let d = Stopwatch.Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app in
  let trace = Sw_obs.Trace.create () in
  Stopwatch.Cloud.attach_trace cloud trace;
  let survivor, restarted =
    match Stopwatch.Cloud.replicas d with
    | [ a; b; _ ] -> (a, b)
    | _ -> Alcotest.fail "expected three replicas"
  in
  let completed machine =
    Metric.counter
      (Stopwatch.Cloud.metrics_snapshot cloud)
      (Printf.sprintf "vmm.%d.disk.completed" machine)
  in
  let irqs replica =
    List.filter_map
      (fun (e : Sw_obs.Trace.entry) ->
        match e.Sw_obs.Trace.event with
        | Sw_obs.Event.Disk_irq { replica = r; tag; virt_ns; _ } when r = replica
          ->
            Some (tag, virt_ns)
        | _ -> None)
      (Sw_obs.Trace.entries trace)
  in
  let id = Sw_vmm.Vmm.replica in
  Stopwatch.Cloud.run cloud ~until:(Time.ms 10);
  Sw_vmm.Vmm.crash restarted;
  Stopwatch.Cloud.run cloud ~until:(Time.ms 23);
  Alcotest.(check int) "only the first read completed at the resync" 1
    (completed 0);
  Alcotest.(check int) "nothing injected before the resync" 0
    (List.length (irqs (id survivor)));
  Sw_vmm.Vmm.reintegrate restarted ~from:survivor;
  Stopwatch.Cloud.run cloud ~until:(Time.ms 200);
  Alcotest.(check int) "the restarted replica issued no read itself" 0
    (completed 1);
  let expected = irqs (id survivor) in
  Alcotest.(check (list int)) "survivor injects in issue order" [ 9; 7; 7; 3 ]
    (List.map fst expected);
  Alcotest.(check (list (pair int int)))
    "same tags at the same virtual times" expected
    (irqs (id restarted))

let () =
  Alcotest.run "sw_vmm"
    [
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validate;
          Alcotest.test_case "slice branches" `Quick test_slice_branches;
        ] );
      ( "machine",
        [
          Alcotest.test_case "dom0 fifo" `Quick test_dom0_fifo;
          Alcotest.test_case "slice loop & park/wake" `Quick test_slice_loop;
          Alcotest.test_case "independent residents" `Quick test_independent_residents;
          Alcotest.test_case "dma engine" `Quick test_dma_engine_fifo;
          Alcotest.test_case "transmit" `Quick test_transmit_reaches_network;
        ] );
      ( "replica-group",
        [
          Alcotest.test_case "median_time" `Quick test_median_time;
          Alcotest.test_case "skew blocks fastest" `Quick test_skew_blocks_fastest;
          Alcotest.test_case "skew ties" `Quick test_skew_ties_do_not_block;
          Alcotest.test_case "baseline inert" `Quick test_baseline_mode_inert;
          Alcotest.test_case "epoch resolution" `Quick test_epoch_resolution;
          Alcotest.test_case "epoch report buffering" `Quick
            test_epoch_out_of_order_reports;
          Alcotest.test_case "divergence counter" `Quick test_divergence_counter;
          Alcotest.test_case "group capacity" `Quick test_group_full;
        ] );
      ( "reintegrate",
        [
          Alcotest.test_case "disk requests in flight mirrored" `Quick
            test_reintegrate_mirrors_disk_in_flight;
        ] );
    ]
