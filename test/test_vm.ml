(* Tests for the guest VM model: the fixed-point virtual clock (Eqn. 1), the
   deterministic guest runtime (action processing, packet numbering, timers,
   PIT ticks, idle spinning). *)

module Time = Sw_sim.Time
module Vt = Sw_vm.Virtual_time
module App = Sw_vm.App
module Guest = Sw_vm.Guest
module Packet = Sw_net.Packet

(* --- Virtual time ----------------------------------------------------------- *)

let test_vt_linear () =
  let vt = Vt.create ~start:(Time.ms 5) ~slope_ns_per_branch:1.0 () in
  Alcotest.(check int) "at 0" (Time.ms 5) (Vt.virt_at vt 0);
  Alcotest.(check int) "at 1e6" (Time.ms 6) (Vt.virt_at vt 1_000_000)

let test_vt_fractional_slope () =
  let vt = Vt.create ~start:Time.zero ~slope_ns_per_branch:0.5 () in
  Alcotest.(check int) "half speed" (Time.ms 1) (Vt.virt_at vt 2_000_000)

let test_vt_set_slope_continuous () =
  let vt = Vt.create ~start:Time.zero ~slope_ns_per_branch:2.0 () in
  let before = Vt.virt_at vt 1000 in
  Vt.set_slope vt ~at_instr:1000 ~slope_ns_per_branch:1.0;
  Alcotest.(check int) "continuous at switch" before (Vt.virt_at vt 1000);
  Alcotest.(check int) "new slope applies"
    (Time.add before (Time.ns 500))
    (Vt.virt_at vt 1500)

let test_vt_rejects_past () =
  let vt = Vt.create ~start:Time.zero ~slope_ns_per_branch:1.0 () in
  Vt.set_slope vt ~at_instr:100 ~slope_ns_per_branch:1.0;
  Alcotest.check_raises "before segment" (Invalid_argument "x") (fun () ->
      try ignore (Vt.virt_at vt 50) with
      | Invalid_argument _ -> raise (Invalid_argument "x"))

let test_vt_clamp () =
  Alcotest.(check (float 0.)) "below" 0.9 (Vt.clamped_slope ~l:0.9 ~u:1.1 0.2);
  Alcotest.(check (float 0.)) "above" 1.1 (Vt.clamped_slope ~l:0.9 ~u:1.1 7.);
  Alcotest.(check (float 0.)) "inside" 1.05 (Vt.clamped_slope ~l:0.9 ~u:1.1 1.05)

let prop_vt_monotone =
  QCheck.Test.make ~name:"virtual time is monotone in instr" ~count:200
    QCheck.(pair (float_range 0.01 10.) (list (int_bound 1_000_000)))
    (fun (slope, increments) ->
      let vt = Vt.create ~start:Time.zero ~slope_ns_per_branch:slope () in
      let instr = ref 0 in
      List.for_all
        (fun inc ->
          let before = Vt.virt_at vt !instr in
          instr := !instr + inc;
          Time.(Vt.virt_at vt !instr >= before))
        increments)

let prop_vt_instr_for_virt_inverse =
  QCheck.Test.make ~name:"instr_for_virt is the least branch count reaching v"
    ~count:200
    QCheck.(pair (float_range 0.1 4.) (int_range 1 10_000_000))
    (fun (slope, v_ns) ->
      let vt = Vt.create ~start:Time.zero ~slope_ns_per_branch:slope () in
      let v = Time.ns v_ns in
      let i = Vt.instr_for_virt vt v in
      Time.(Vt.virt_at vt i >= v)
      && (i = 0 || Time.(Vt.virt_at vt (i - 1) < v)))

(* --- Exactness against a 64-bit clock --------------------------------------- *)

(* The virtual clock and the guest-visible clocks as they were computed when
   every value was an int64: the reference the immediate-int versions must
   match bit for bit. Each formula's product can pass 2^62 (and even wrap
   64 bits) at the ranges below, so a product taken in plain 63-bit int
   arithmetic disagrees with it. *)
module Ref64 = struct
  let fp_bits = 20
  let slope_fp slope = Int64.of_float (Float.round (slope *. 1_048_576.))

  let virt_at ~start ~slope instr =
    Int64.add start
      (Int64.shift_right_logical (Int64.mul instr (slope_fp slope)) fp_bits)

  let instr_for_virt ~start ~slope v =
    let s = slope_fp slope in
    if Int64.compare v start <= 0 then 0L
    else if Int64.equal s 0L then Int64.max_int
    else
      let num = Int64.shift_left (Int64.sub v start) fp_bits in
      Int64.div (Int64.add num (Int64.sub s 1L)) s

  let rdtsc ~tsc_hz virt =
    let khz = Int64.of_float (Float.round (tsc_hz /. 1e3)) in
    Int64.div (Int64.mul virt khz) 1_000_000L

  let pit_counter ~pit_hz ~reload virt =
    let hz = Int64.of_float (Float.round pit_hz) in
    let ticks = Int64.div (Int64.mul virt hz) 1_000_000_000L in
    reload - Int64.to_int (Int64.rem ticks (Int64.of_int reload))
end

let same_as_ref64 got want = Int64.equal (Int64.of_int got) want

(* One case: a clock started at [start], read [instr] branches in and
   inverted at virtual time [v]; the guest clocks read at [v]. *)
let exact_case ~start ~slope ~instr ~v ~tsc_khz ~pit_hz ~reload =
  let vt = Vt.create ~start:(Time.ns start) ~slope_ns_per_branch:slope () in
  let clocks =
    Sw_vm.Clocks.create ~tsc_hz:(float_of_int tsc_khz *. 1e3)
      ~pit_hz:(float_of_int pit_hz) ~pit_reload:reload ()
  in
  let tsc_hz = float_of_int tsc_khz *. 1e3 and pit_hz = float_of_int pit_hz in
  let start64 = Int64.of_int start and v64 = Int64.of_int v in
  same_as_ref64 (Vt.virt_at vt instr)
    (Ref64.virt_at ~start:start64 ~slope (Int64.of_int instr))
  && same_as_ref64 (Vt.instr_for_virt vt (Time.ns v))
       (Ref64.instr_for_virt ~start:start64 ~slope v64)
  && same_as_ref64
       (Sw_vm.Clocks.rdtsc clocks ~virt:(Time.ns v))
       (Ref64.rdtsc ~tsc_hz v64)
  && Sw_vm.Clocks.pit_counter clocks ~virt:(Time.ns v)
     = Ref64.pit_counter ~pit_hz ~reload v64

let prop_exact_products =
  QCheck.Test.make
    ~name:"virt_at, instr_for_virt, rdtsc, pit_counter match a 64-bit clock"
    ~count:1000
    QCheck.(
      pair
        (triple (int_bound (1 lsl 40)) (float_range 0.01 10.)
           (int_bound (1 lsl 52)))
        (triple (int_bound (1 lsl 52)) (int_range 1 5_000_000)
           (pair (int_range 1 2_000_000) (int_range 1 100_000))))
    (fun ((instr, slope, v), (start, tsc_khz, (pit_hz, reload))) ->
      exact_case ~start ~slope ~instr ~v ~tsc_khz ~pit_hz ~reload)

let test_exact_products_near_2_62 () =
  (* Within 1 % of 2^62, where every product leaves the 63-bit range. *)
  let near = (1 lsl 62) - (1 lsl 55) in
  List.iter
    (fun (instr, v, slope) ->
      Alcotest.(check bool)
        (Printf.sprintf "instr=%d v=%d slope=%g" instr v slope)
        true
        (exact_case ~start:0 ~slope ~instr ~v ~tsc_khz:3_000_000
           ~pit_hz:1_193_182 ~reload:4772))
    [
      (near, near, 1.0);
      (near, near, 0.01);
      ((1 lsl 62) - 1, (1 lsl 62) - 1, 10.);
      (near + (1 lsl 54), near + (1 lsl 54), 2.5);
    ]

(* --- Guest runtime ------------------------------------------------------------ *)

type recorded =
  | Sent of { seq : int; instr : int; size : int }
  | Disk of { kind : [ `Read | `Write ]; bytes : int; tag : int; instr : int }
  | Dma of { bytes : int; tag : int; instr : int }

let make_guest ?pit_period app_handle =
  let events = ref [] in
  let sinks =
    {
      Guest.send =
        (fun ~seq ~instr ~dst:_ ~size ~payload:_ ->
          events := Sent { seq; instr; size } :: !events);
      disk =
        (fun ~kind ~bytes ~sequential:_ ~tag ~instr ->
          events := Disk { kind; bytes; tag; instr } :: !events);
      dma =
        (fun ~bytes ~tag ~instr ->
          events := Dma { bytes; tag; instr } :: !events);
    }
  in
  let vt = Vt.create ~start:Time.zero ~slope_ns_per_branch:1.0 () in
  let guest = Guest.create ~app:{ App.handle = app_handle } ~vt ?pit_period ~sinks () in
  (guest, events)


let test_guest_idle_spins () =
  let guest, _ = make_guest (fun ~virt_now:_ _ -> []) in
  Guest.boot guest;
  Guest.run_branches guest 1000;
  Alcotest.(check int) "instr advances while idle" 1000 (Guest.instr guest);
  Alcotest.(check int) "virt follows" (Time.ns 1000) (Guest.virt_now guest)

let test_guest_compute_then_send () =
  let guest, events =
    make_guest (fun ~virt_now:_ ev ->
        match ev with
        | App.Boot ->
            [
              App.Compute 500;
              App.Send { dst = Sw_net.Address.Host 0; size = 64; payload = Packet.Empty };
              App.Compute 200;
              App.Send { dst = Sw_net.Address.Host 0; size = 65; payload = Packet.Empty };
            ]
        | _ -> [])
  in
  Guest.boot guest;
  Guest.run_branches guest 1000;
  match List.rev !events with
  | [ Sent { seq = 0; instr = 500; size = 64 }; Sent { seq = 1; instr = 700; size = 65 } ]
    ->
      Alcotest.(check int) "sent count" 2 (Guest.sent_packets guest)
  | _ -> Alcotest.fail "sends must fire at exact branch offsets with ordered seqs"

let test_guest_compute_spans_slices () =
  let guest, events =
    make_guest (fun ~virt_now:_ ev ->
        match ev with
        | App.Boot ->
            [
              App.Compute 1500;
              App.Send { dst = Sw_net.Address.Host 0; size = 64; payload = Packet.Empty };
            ]
        | _ -> [])
  in
  Guest.boot guest;
  Guest.run_branches guest 1000;
  Alcotest.(check int) "not yet" 0 (List.length !events);
  Guest.run_branches guest 1000;
  match !events with
  | [ Sent { instr = 1500; _ } ] -> ()
  | _ -> Alcotest.fail "send fires mid second slice at branch 1500"

let test_guest_disk_sink () =
  let guest, events =
    make_guest (fun ~virt_now:_ ev ->
        match ev with
        | App.Boot -> [ App.Disk_read { bytes = 4096; sequential = true; tag = 9 } ]
        | App.Disk_done { tag } ->
            [ App.Disk_write { bytes = 512; sequential = false; tag = tag + 1 } ]
        | _ -> [])
  in
  Guest.boot guest;
  (match !events with
  | [ Disk { kind = `Read; bytes = 4096; tag = 9; instr = 0 } ] -> ()
  | _ -> Alcotest.fail "read issued at boot");
  Guest.inject guest (App.Disk_done { tag = 9 });
  match !events with
  | Disk { kind = `Write; bytes = 512; tag = 10; _ } :: _ -> ()
  | _ -> Alcotest.fail "write issued on completion"

let test_guest_dma_sink () =
  let guest, events =
    make_guest (fun ~virt_now:_ ev ->
        match ev with
        | App.Boot -> [ App.Compute 100; App.Dma_transfer { bytes = 4096; tag = 3 } ]
        | App.Dma_done { tag } -> [ App.Dma_transfer { bytes = 64; tag = tag + 1 } ]
        | _ -> [])
  in
  Guest.boot guest;
  Guest.run_branches guest 1000;
  (match List.rev !events with
  | [ Dma { bytes = 4096; tag = 3; instr = 100 } ] -> ()
  | _ -> Alcotest.fail "dma issued after compute");
  Guest.inject guest (App.Dma_done { tag = 3 });
  match !events with
  | Dma { bytes = 64; tag = 4; _ } :: _ -> ()
  | _ -> Alcotest.fail "next dma issued on completion"

let test_guest_timers_fire_in_order () =
  let fired = ref [] in
  let guest, _ =
    make_guest (fun ~virt_now:_ ev ->
        match ev with
        | App.Boot ->
            [
              App.Set_timer { after = Time.us 30; tag = 2 };
              App.Set_timer { after = Time.us 10; tag = 1 };
            ]
        | App.Timer { tag } ->
            fired := tag :: !fired;
            []
        | _ -> [])
  in
  Guest.boot guest;
  (match Guest.next_timer_virt guest with
  | Some d -> Alcotest.(check int) "earliest deadline" (Time.us 10) d
  | None -> Alcotest.fail "timer expected");
  Guest.run_branches guest 100_000;
  Guest.deliver_due_timers guest;
  Alcotest.(check (list int)) "deadline order" [ 1; 2 ] (List.rev !fired)

let test_guest_pit_ticks () =
  let ticks = ref 0 in
  let guest, _ =
    make_guest ~pit_period:(Time.us 100) (fun ~virt_now:_ ev ->
        match ev with
        | App.Tick ->
            incr ticks;
            []
        | _ -> [])
  in
  Guest.boot guest;
  Guest.run_branches guest 1_000_000;
  (* 1 ms of virtual time with a 100 us PIT = 10 ticks. *)
  Guest.deliver_due_timers guest;
  Alcotest.(check int) "tick count" 10 !ticks

let test_guest_timer_at_injection_virt () =
  (* The virtual time an app observes at a timer event is the delivery exit's
     virtual time, not the deadline. *)
  let observed = ref Time.zero in
  let guest, _ =
    make_guest (fun ~virt_now ev ->
        match ev with
        | App.Boot -> [ App.Set_timer { after = Time.us 10; tag = 1 } ]
        | App.Timer _ ->
            observed := virt_now;
            []
        | _ -> [])
  in
  Guest.boot guest;
  Guest.run_branches guest 50_000;
  Guest.deliver_due_timers guest;
  Alcotest.(check int) "observed at exit" (Time.us 50) !observed

let prop_guest_deterministic_replicas =
  QCheck.Test.make
    ~name:"two replicas fed identical events emit identical sends" ~count:50
    QCheck.(list (int_range 1 50_000))
    (fun slices ->
      let app () ~virt_now:_ ev =
        match ev with
        | App.Boot ->
            [
              App.Compute 1000;
              App.Send { dst = Sw_net.Address.Host 0; size = 10; payload = Packet.Empty };
              App.Compute 5000;
              App.Send { dst = Sw_net.Address.Host 0; size = 11; payload = Packet.Empty };
            ]
        | _ -> []
      in
      let run () =
        let guest, events = make_guest (app ()) in
        Guest.boot guest;
        List.iter (fun s -> Guest.run_branches guest s) slices;
        (Guest.instr guest, !events)
      in
      run () = run ())

(* A compute cut by a slice boundary resumes where it stopped: running a
   [Compute c1; Send; Compute c2; Send; ...] guest in slices of any sizes
   emits every send at the branch count one long [run_branches] gives. *)
let prop_chunking_preserves_send_instr =
  QCheck.Test.make ~name:"slice sizes never move a send's branch count"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 12) (int_bound 40_000))
        (list_of_size Gen.(int_range 1 60) (int_range 1 25_000)))
    (fun (computes, slices) ->
      let app ~virt_now:_ = function
        | App.Boot ->
            List.concat_map
              (fun c ->
                [
                  App.Compute c;
                  App.Send
                    { dst = Sw_net.Address.Host 0; size = c; payload = Packet.Empty };
                ])
              computes
        | _ -> []
      in
      let total = List.fold_left ( + ) 0 computes in
      let sends run =
        let guest, events = make_guest app in
        Guest.boot guest;
        run guest;
        List.rev !events
      in
      let whole = sends (fun g -> Guest.run_branches g total) in
      let chunked =
        sends (fun g ->
            List.iter (Guest.run_branches g) slices;
            Guest.run_branches g
              (Stdlib.max 0 (total - List.fold_left ( + ) 0 slices)))
      in
      List.length whole = List.length computes && chunked = whole)

(* --- Clocks (Sec. IV-B) -------------------------------------------------------- *)

let test_clocks_rdtsc () =
  let clocks = Sw_vm.Clocks.create ~tsc_hz:3.0e9 () in
  Alcotest.(check int) "zero" 0 (Sw_vm.Clocks.rdtsc clocks ~virt:Time.zero);
  Alcotest.(check int) "1 ms = 3M ticks" 3_000_000
    (Sw_vm.Clocks.rdtsc clocks ~virt:(Time.ms 1));
  Alcotest.(check int) "1 s = 3G ticks" 3_000_000_000
    (Sw_vm.Clocks.rdtsc clocks ~virt:(Time.s 1))

let test_clocks_rtc () =
  let clocks = Sw_vm.Clocks.create () in
  Alcotest.(check int) "sub-second" 0
    (Sw_vm.Clocks.rtc_seconds clocks ~virt:(Time.ms 999));
  Alcotest.(check int) "2.5 s" 2 (Sw_vm.Clocks.rtc_seconds clocks ~virt:(Time.of_float_s 2.5))

let test_clocks_pit_counter () =
  let clocks = Sw_vm.Clocks.create ~pit_hz:1_000_000. ~pit_reload:1000 () in
  (* 1 MHz input, reload 1000: the counter decrements once per us and wraps
     every ms. *)
  Alcotest.(check int) "full" 1000 (Sw_vm.Clocks.pit_counter clocks ~virt:Time.zero);
  Alcotest.(check int) "quarter" 750
    (Sw_vm.Clocks.pit_counter clocks ~virt:(Time.us 250));
  Alcotest.(check int) "wrapped" 1000
    (Sw_vm.Clocks.pit_counter clocks ~virt:(Time.ms 1));
  Alcotest.(check int) "interrupt period" (Time.ms 1)
    (Sw_vm.Clocks.pit_interrupt_period clocks)

let prop_clocks_deterministic =
  QCheck.Test.make ~name:"clock readings are a function of virtual time alone"
    ~count:200
    QCheck.(int_bound 1_000_000_000)
    (fun v ->
      let virt = Time.ns v in
      let c1 = Sw_vm.Clocks.create () and c2 = Sw_vm.Clocks.create () in
      Sw_vm.Clocks.rdtsc c1 ~virt = Sw_vm.Clocks.rdtsc c2 ~virt
      && Sw_vm.Clocks.pit_counter c1 ~virt = Sw_vm.Clocks.pit_counter c2 ~virt
      && Sw_vm.Clocks.rtc_seconds c1 ~virt = Sw_vm.Clocks.rtc_seconds c2 ~virt)

let prop_pit_counter_range =
  QCheck.Test.make ~name:"PIT counter stays within (0, reload]" ~count:200
    QCheck.(pair (int_range 1 100_000) (int_bound 1_000_000_000))
    (fun (reload, v) ->
      let clocks = Sw_vm.Clocks.create ~pit_reload:reload () in
      let c = Sw_vm.Clocks.pit_counter clocks ~virt:(Time.ns v) in
      c > 0 && c <= reload)

let () =
  Alcotest.run "sw_vm"
    [
      ( "virtual-time",
        [
          Alcotest.test_case "linear" `Quick test_vt_linear;
          Alcotest.test_case "fractional slope" `Quick test_vt_fractional_slope;
          Alcotest.test_case "slope change is continuous" `Quick
            test_vt_set_slope_continuous;
          Alcotest.test_case "rejects pre-segment reads" `Quick test_vt_rejects_past;
          Alcotest.test_case "clamp" `Quick test_vt_clamp;
          QCheck_alcotest.to_alcotest prop_vt_monotone;
          QCheck_alcotest.to_alcotest prop_vt_instr_for_virt_inverse;
          QCheck_alcotest.to_alcotest prop_exact_products;
          Alcotest.test_case "exact products near 2^62" `Quick
            test_exact_products_near_2_62;
        ] );
      ( "guest",
        [
          Alcotest.test_case "idle spins" `Quick test_guest_idle_spins;
          Alcotest.test_case "compute then send" `Quick test_guest_compute_then_send;
          Alcotest.test_case "compute spans slices" `Quick
            test_guest_compute_spans_slices;
          Alcotest.test_case "disk sink" `Quick test_guest_disk_sink;
          Alcotest.test_case "dma sink" `Quick test_guest_dma_sink;
          Alcotest.test_case "timers in deadline order" `Quick
            test_guest_timers_fire_in_order;
          Alcotest.test_case "pit ticks" `Quick test_guest_pit_ticks;
          Alcotest.test_case "timer observes exit virt" `Quick
            test_guest_timer_at_injection_virt;
          QCheck_alcotest.to_alcotest prop_guest_deterministic_replicas;
          QCheck_alcotest.to_alcotest prop_chunking_preserves_send_instr;
        ] );
      ( "clocks",
        [
          Alcotest.test_case "rdtsc" `Quick test_clocks_rdtsc;
          Alcotest.test_case "rtc" `Quick test_clocks_rtc;
          Alcotest.test_case "pit counter" `Quick test_clocks_pit_counter;
          QCheck_alcotest.to_alcotest prop_clocks_deterministic;
          QCheck_alcotest.to_alcotest prop_pit_counter_range;
        ] );
    ]
