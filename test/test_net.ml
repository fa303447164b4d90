(* Tests for the network substrate: link timing, routing, counters, the
   reliable multicast, and the ingress/egress nodes' replication and
   median-release semantics. *)

module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Net = Sw_net.Network
module Packet = Sw_net.Packet
module Address = Sw_net.Address

let quiet_link =
  { Net.latency = Time.ms 1; jitter = Time.zero; bandwidth_bps = 0; loss = 0. }

let setup ?(default = quiet_link) () =
  let engine = Engine.create () in
  let net = Net.create engine ~default in
  (engine, net)

let send net ~src ~dst ?(size = 100) payload =
  Net.send net (Packet.make ~src ~dst ~size ~seq:(Net.fresh_seq net) payload)

(* A counter of the engine's registry, read by name from a fresh snapshot. *)
let counter engine name =
  Metric.counter (Sw_obs.Registry.snapshot (Engine.metrics engine)) name

(* --- Link timing ----------------------------------------------------------- *)

let test_latency () =
  let engine, net = setup () in
  let arrival = ref Time.zero in
  Net.register net (Address.Host 1) (fun _ -> arrival := Engine.now engine);
  send net ~src:(Address.Host 0) ~dst:(Address.Host 1) (Packet.Background 1);
  Engine.run engine;
  Alcotest.(check int) "latency applied" (Time.ms 1) !arrival

let test_serialisation () =
  let engine, net = setup () in
  let default =
    { Net.latency = Time.zero; jitter = Time.zero; bandwidth_bps = 8_000_000; loss = 0. }
  in
  let net2 = Net.create engine ~default in
  let arrivals = ref [] in
  Net.register net2 (Address.Host 1) (fun _ ->
      arrivals := Engine.now engine :: !arrivals);
  (* 1000-byte packets at 8 Mb/s serialize in 1 ms each, FIFO. *)
  send net2 ~src:(Address.Host 0) ~dst:(Address.Host 1) ~size:1000 (Packet.Background 1);
  send net2 ~src:(Address.Host 0) ~dst:(Address.Host 1) ~size:1000 (Packet.Background 2);
  Engine.run engine;
  ignore net;
  Alcotest.(check (list int)) "back-to-back serialisation"
    [ Time.ms 1; Time.ms 2 ]
    (List.rev !arrivals)

let test_fifo_no_reorder () =
  let engine = Engine.create () in
  let default =
    { Net.latency = Time.ms 1; jitter = Time.us 900; bandwidth_bps = 0; loss = 0. }
  in
  let net = Net.create engine ~default in
  let order = ref [] in
  Net.register net (Address.Host 1) (fun pkt ->
      match pkt.Packet.payload with
      | Packet.Background n -> order := n :: !order
      | _ -> ());
  for i = 1 to 50 do
    send net ~src:(Address.Host 0) ~dst:(Address.Host 1) (Packet.Background i)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "jitter never reorders a link"
    (List.init 50 (fun i -> i + 1))
    (List.rev !order)

let test_loss () =
  let engine = Engine.create () in
  let default = { quiet_link with Net.loss = 1.0 } in
  let net = Net.create engine ~default in
  let got = ref 0 in
  Net.register net (Address.Host 1) (fun _ -> incr got);
  send net ~src:(Address.Host 0) ~dst:(Address.Host 1) (Packet.Background 1);
  Engine.run engine;
  Alcotest.(check int) "all lost" 0 !got;
  Alcotest.(check int) "loss counted" 1 (counter engine "net.lost")

(* --- Routing / counters ------------------------------------------------------ *)

let test_route_rewrite () =
  let engine, net = setup () in
  let at_ingress = ref 0 and at_vm = ref 0 in
  Net.register net Address.Ingress (fun _ -> incr at_ingress);
  Net.register net (Address.Vm 3) (fun _ -> incr at_vm);
  Net.set_route net ~dst:(Address.Vm 3) ~via:Address.Ingress;
  send net ~src:(Address.Host 0) ~dst:(Address.Vm 3) (Packet.Background 1);
  Engine.run engine;
  Alcotest.(check int) "delivered via ingress" 1 !at_ingress;
  Alcotest.(check int) "vm handler bypassed" 0 !at_vm

let test_undeliverable () =
  let engine, net = setup () in
  send net ~src:(Address.Host 0) ~dst:(Address.Host 9) (Packet.Background 1);
  Engine.run engine;
  Alcotest.(check int) "undeliverable counted" 1 (counter engine "net.undeliverable")

let test_counters () =
  let engine, net = setup () in
  Net.register net (Address.Host 1) (fun _ -> ());
  for _ = 1 to 3 do
    send net ~src:(Address.Host 0) ~dst:(Address.Host 1) (Packet.Background 0)
  done;
  Engine.run engine;
  Alcotest.(check int) "pair count" 3
    (counter engine (Net.pair_metric ~src:(Address.Host 0) ~dst:(Address.Host 1)));
  Alcotest.(check int) "delivered" 3 (counter engine "net.delivered")

let test_broadcast () =
  let engine, net = setup () in
  let got = ref [] in
  List.iter
    (fun i -> Net.register net (Address.Host i) (fun _ -> got := i :: !got))
    [ 0; 1; 2 ];
  send net ~src:(Address.Host 0) ~dst:Address.Broadcast_addr (Packet.Background 1);
  Engine.run engine;
  Alcotest.(check (list int)) "everyone but sender" [ 1; 2 ]
    (List.sort compare !got)

(* The broadcast walk visits handlers in ascending [Address.index] (host0
   is 3, ingress 4, egress 5, vmm1 10, vm2 17), whatever the registration
   order, and not in [Address.compare] order; with equal link delays that
   is also the delivery order. *)
let test_broadcast_order () =
  let engine, net = setup () in
  let got = ref [] in
  List.iter
    (fun addr ->
      Net.register net addr (fun _ -> got := Address.to_string addr :: !got))
    [ Address.Host 5; Address.Vm 2; Address.Egress; Address.Vmm 1;
      Address.Host 0; Address.Ingress ];
  send net ~src:(Address.Host 5) ~dst:Address.Broadcast_addr (Packet.Background 1);
  Engine.run engine;
  Alcotest.(check (list string)) "ascending index"
    [ "host0"; "ingress"; "egress"; "vmm1"; "vm2" ]
    (List.rev !got)

let test_node_link_override () =
  let engine, net = setup () in
  Net.set_node_link net (Address.Host 1)
    { quiet_link with Net.latency = Time.ms 10 };
  let arrival = ref Time.zero in
  Net.register net (Address.Host 1) (fun _ -> arrival := Engine.now engine);
  send net ~src:(Address.Vm 5) ~dst:(Address.Host 1) (Packet.Background 1);
  Engine.run engine;
  Alcotest.(check int) "node override used" (Time.ms 10) !arrival

(* --- Resolved links ---------------------------------------------------------- *)

(* [send] caches each (src, dst) pair's route, link state and handler;
   [register] and [set_route] must reach packets sent after them, while a
   packet already in flight keeps the handler it was sent to. *)
let test_reregister_after_traffic () =
  let engine, net = setup () in
  let old_got = ref [] and new_got = ref [] in
  let record r pkt =
    match pkt.Packet.payload with Packet.Background n -> r := n :: !r | _ -> ()
  in
  Net.register net (Address.Host 1) (record old_got);
  send net ~src:(Address.Host 0) ~dst:(Address.Host 1) (Packet.Background 1);
  Engine.run engine;
  send net ~src:(Address.Host 0) ~dst:(Address.Host 1) (Packet.Background 2);
  Net.register net (Address.Host 1) (record new_got);
  send net ~src:(Address.Host 0) ~dst:(Address.Host 1) (Packet.Background 3);
  Engine.run engine;
  Alcotest.(check (list int)) "old handler: sent before the call" [ 1; 2 ]
    (List.rev !old_got);
  Alcotest.(check (list int)) "new handler: sent after the call" [ 3 ]
    (List.rev !new_got)

let test_route_after_traffic () =
  let engine, net = setup () in
  let at_host = ref 0 and at_ingress = ref 0 in
  Net.register net (Address.Host 1) (fun _ -> incr at_host);
  Net.register net Address.Ingress (fun _ -> incr at_ingress);
  send net ~src:(Address.Host 0) ~dst:(Address.Host 1) (Packet.Background 1);
  Engine.run engine;
  Net.set_route net ~dst:(Address.Host 1) ~via:Address.Ingress;
  send net ~src:(Address.Host 0) ~dst:(Address.Host 1) (Packet.Background 2);
  Engine.run engine;
  Alcotest.(check int) "before the route: direct" 1 !at_host;
  Alcotest.(check int) "after the route: via ingress" 1 !at_ingress;
  Alcotest.(check int) "both counted on the addressed pair" 2
    (counter engine (Net.pair_metric ~src:(Address.Host 0) ~dst:(Address.Host 1)))

(* Two destinations routed to one target are one pipe: 1000-byte packets
   at 8 Mb/s serialise in 1 ms each, so interleaved sends to vm1 and vm2
   arrive 1 ms apart, not in two parallel queues. *)
let test_routed_pairs_share_fifo () =
  let engine = Engine.create () in
  let default =
    { Net.latency = Time.zero; jitter = Time.zero; bandwidth_bps = 8_000_000; loss = 0. }
  in
  let net = Net.create engine ~default in
  let arrivals = ref [] in
  Net.register net Address.Ingress (fun pkt ->
      arrivals := (Address.to_string pkt.Packet.dst, Engine.now engine) :: !arrivals);
  Net.set_route net ~dst:(Address.Vm 1) ~via:Address.Ingress;
  Net.set_route net ~dst:(Address.Vm 2) ~via:Address.Ingress;
  List.iter
    (fun (vm, n) ->
      send net ~src:(Address.Host 0) ~dst:(Address.Vm vm) ~size:1000
        (Packet.Background n))
    [ (1, 1); (2, 2); (1, 3) ];
  Engine.run engine;
  Alcotest.(check (list (pair string int))) "one FIFO"
    [ ("vm1", Time.ms 1); ("vm2", Time.ms 2); ("vm1", Time.ms 3) ]
    (List.rev !arrivals)

(* A pair's counter is registered at its first delivery: lost and
   undeliverable packets leave none behind. *)
let test_no_counter_without_delivery () =
  let engine, net = setup () in
  Net.register net (Address.Host 1) (fun _ -> ());
  Net.register net (Address.Host 2) (fun _ -> ());
  Net.set_link net ~src:(Address.Host 0) ~dst:(Address.Host 1)
    { quiet_link with Net.loss = 1.0 };
  for n = 1 to 3 do
    send net ~src:(Address.Host 0) ~dst:(Address.Host 1) (Packet.Background n);
    send net ~src:(Address.Host 0) ~dst:(Address.Host 9) (Packet.Background n)
  done;
  send net ~src:(Address.Host 0) ~dst:(Address.Host 2) (Packet.Background 4);
  Engine.run engine;
  let snap = Sw_obs.Registry.snapshot (Engine.metrics engine) in
  let links =
    List.filter_map
      (fun (name, _) ->
        if String.starts_with ~prefix:"net.link." name then Some name else None)
      (Sw_obs.Snapshot.to_list snap)
  in
  Alcotest.(check (list string)) "only the delivering pair"
    [ Net.pair_metric ~src:(Address.Host 0) ~dst:(Address.Host 2) ]
    links;
  Alcotest.(check int) "lost" 3 (counter engine "net.lost");
  Alcotest.(check int) "undeliverable" 3 (counter engine "net.undeliverable")

(* --- Addresses ------------------------------------------------------------------ *)

(* All six constructors; ids are often tiny so that equal pairs turn up. *)
let gen_address =
  QCheck.Gen.(
    let id = oneof [ int_bound 3; int_bound (1 lsl 20) ] in
    oneof
      [
        map (fun i -> Address.Vm i) id;
        map (fun i -> Address.Vmm i) id;
        map (fun i -> Address.Host i) id;
        oneofl [ Address.Ingress; Address.Egress; Address.Broadcast_addr ];
      ])

let arb_address = QCheck.make ~print:Address.to_string gen_address

let prop_index_injective =
  QCheck.Test.make ~name:"Address.index is injective" ~count:500
    (QCheck.list_of_size QCheck.Gen.(1 -- 40) arb_address)
    (fun addrs ->
      List.length (List.sort_uniq Int.compare (List.map Address.index addrs))
      = List.length (List.sort_uniq Stdlib.compare addrs))

let prop_compare_matches_stdlib =
  QCheck.Test.make ~name:"Address.compare has Stdlib.compare's sign"
    ~count:2000 (QCheck.pair arb_address arb_address) (fun (a, b) ->
      Int.compare (Address.compare a b) 0 = Int.compare (Stdlib.compare a b) 0)

let prop_equal_matches_stdlib =
  QCheck.Test.make ~name:"Address.equal agrees with (=)" ~count:2000
    (QCheck.pair arb_address arb_address) (fun (a, b) ->
      Address.equal a b = Stdlib.( = ) a b)

(* Keyed per-link PRNG streams derive from these values; they must stay
   what the streams were keyed by before [Address.index] existed,
   [(id lsl 3) lor tag]. *)
let test_index_pinned () =
  List.iter
    (fun (addr, want) ->
      Alcotest.(check int) (Address.to_string addr) want (Address.index addr))
    [
      (Address.Vm 7, 57);
      (Address.Vmm 3, 26);
      (Address.Host 5, 43);
      (Address.Ingress, 4);
      (Address.Egress, 5);
      (Address.Broadcast_addr, 6);
    ]

(* --- Multicast ---------------------------------------------------------------- *)

let mcast_setup ?(loss = 0.) ?heartbeat () =
  let engine = Engine.create () in
  let default = { quiet_link with Net.loss } in
  let net = Net.create engine ~default in
  let members = [ Address.Vmm 0; Address.Vmm 1; Address.Vmm 2 ] in
  let g = Sw_net.Multicast.group net ~id:0 ~members ?heartbeat () in
  let received = Hashtbl.create 8 in
  let endpoints =
    List.map
      (fun self ->
        let ep =
          Sw_net.Multicast.endpoint g ~self
            ~deliver:(fun pkt ->
              let existing =
                match Hashtbl.find_opt received self with Some l -> l | None -> []
              in
              Hashtbl.replace received self (pkt.Packet.payload :: existing))
            ()
        in
        Net.register net self (fun pkt -> Sw_net.Multicast.handle ep pkt);
        (self, ep))
      members
  in
  (engine, endpoints, received)

let test_mcast_basic () =
  let engine, endpoints, received = mcast_setup () in
  let _, ep0 = List.hd endpoints in
  Sw_net.Multicast.publish ep0 ~size:100 (Packet.Background 1);
  Sw_net.Multicast.publish ep0 ~size:100 (Packet.Background 2);
  Engine.run engine;
  List.iter
    (fun self ->
      let payloads = List.rev (Hashtbl.find received self) in
      Alcotest.(check int)
        (Address.to_string self ^ " got both")
        2 (List.length payloads);
      match payloads with
      | [ Packet.Background 1; Packet.Background 2 ] -> ()
      | _ -> Alcotest.fail "in-order delivery expected")
    [ Address.Vmm 1; Address.Vmm 2 ];
  Alcotest.(check bool) "sender does not self-deliver" true
    (not (Hashtbl.mem received (Address.Vmm 0)))

let test_mcast_loss_recovery () =
  (* With a lossy fabric and heartbeats, everything still arrives in order. *)
  let engine, endpoints, received = mcast_setup ~loss:0.3 ~heartbeat:(Time.ms 5) () in
  let _, ep0 = List.hd endpoints in
  for i = 1 to 20 do
    Sw_net.Multicast.publish ep0 ~size:100 (Packet.Background i)
  done;
  Engine.run ~until:(Time.s 2) engine;
  List.iter
    (fun self ->
      let payloads = List.rev (Hashtbl.find received self) in
      let tags =
        List.filter_map (function Packet.Background n -> Some n | _ -> None) payloads
      in
      Alcotest.(check (list int))
        (Address.to_string self ^ " complete in-order stream")
        (List.init 20 (fun i -> i + 1))
        tags)
    [ Address.Vmm 1; Address.Vmm 2 ]

let test_mcast_rejects_foreign () =
  let engine, endpoints, _ = mcast_setup () in
  ignore engine;
  let _, ep0 = List.hd endpoints in
  Alcotest.check_raises "non-multicast packet" (Invalid_argument "x") (fun () ->
      try
        Sw_net.Multicast.handle ep0
          (Packet.make ~src:(Address.Vmm 1) ~dst:(Address.Vmm 0) ~size:10 ~seq:1
             (Packet.Background 1))
      with Invalid_argument _ -> raise (Invalid_argument "x"))

(* One receiver is handed the sender's data packets in any order, some twice
   and some never (its NAKs must fetch those; the last mseq is always
   handed over, so every gap is visible). It must deliver each mseq exactly
   once, in order. Then a NAK for mseq [k] must still find it in the
   sender's history, which holds one copy per published mseq. *)
let gen_feed =
  QCheck.Gen.(
    int_range 1 40 >>= fun n ->
    list_repeat n (int_bound 3) >>= fun rolls ->
    (* roll 0: never handed over; roll 3: handed over twice *)
    let feed =
      List.concat
        (List.mapi
           (fun m roll ->
             if roll = 0 && m < n - 1 then [] else if roll = 3 then [ m; m ] else [ m ])
           rolls)
    in
    shuffle_l feed >>= fun feed ->
    int_bound (n - 1) >>= fun k -> return (n, feed, k))

let print_feed (n, feed, k) =
  Printf.sprintf "n=%d feed=[%s] nak=%d" n
    (String.concat ";" (List.map string_of_int feed))
    k

let prop_mcast_order =
  QCheck.Test.make ~name:"any arrival order delivers each mseq once, in order"
    ~count:300 (QCheck.make ~print:print_feed gen_feed) (fun (n, feed, k) ->
      let engine, net = setup () in
      let sender = Address.Vmm 0 and receiver = Address.Vmm 1 in
      let g =
        Sw_net.Multicast.group net ~id:0
          ~members:[ sender; receiver; Address.Vmm 2 ] ()
      in
      (* While [Some], the sender's packets are held here instead of sent. *)
      let held = ref (Some []) in
      let ep0 =
        Sw_net.Multicast.endpoint g ~self:sender
          ~transmit:(fun pkt ->
            match !held with
            | Some l -> held := Some (pkt :: l)
            | None -> Net.send net pkt)
          ~deliver:ignore ()
      in
      let got = ref [] in
      let ep1 =
        Sw_net.Multicast.endpoint g ~self:receiver
          ~deliver:(fun pkt ->
            match pkt.Packet.payload with
            | Packet.Background m -> got := m :: !got
            | _ -> ())
          ()
      in
      Net.register net sender (Sw_net.Multicast.handle ep0);
      Net.register net receiver (Sw_net.Multicast.handle ep1);
      for m = 0 to n - 1 do
        Sw_net.Multicast.publish ep0 ~size:100 (Packet.Background m)
      done;
      let to_receiver =
        List.filter
          (fun p -> Address.equal p.Packet.dst receiver)
          (Option.get !held)
      in
      let copy m =
        List.find
          (fun p ->
            match p.Packet.payload with
            | Packet.Mcast_data { mseq; _ } -> mseq = m
            | _ -> false)
          to_receiver
      in
      held := None;
      List.iter (fun m -> Sw_net.Multicast.handle ep1 (copy m)) feed;
      Engine.run engine;
      let in_order = List.rev !got = List.init n Fun.id in
      held := Some [];
      let retransmissions () =
        counter engine
          ("net.mcast." ^ Address.to_string sender ^ ".retransmissions")
      in
      let before = retransmissions () in
      Sw_net.Multicast.handle ep0
        (Packet.make ~src:receiver ~dst:sender ~size:64 ~seq:0
           (Packet.Mcast_nak
              {
                group = Sw_net.Multicast.group_id g;
                origin = sender;
                from_mseq = k;
                to_mseq = k;
              }));
      let resent =
        match !held with
        | Some
            [
              {
                Packet.dst;
                payload = Packet.Mcast_data { mseq; inner = Packet.Background b; _ };
                _;
              };
            ] ->
            mseq = k && b = k && Address.equal dst receiver
        | _ -> false
      in
      in_order && resent
      && retransmissions () = before + 1)

(* --- Multicast transmit window ----------------------------------------------- *)

(* Window tests publish in rounds: each listed sender publishes one packet
   tagged [1000 * k + round] (k its Vmm number), then the fabric settles.
   [sent] records what each sender published, for [complete]. *)
let vmm_no = function Address.Vmm k -> k | _ -> invalid_arg "vmm_no"

let publish_round endpoints sent ~round senders =
  List.iter
    (fun self ->
      Sw_net.Multicast.publish (List.assoc self endpoints) ~size:100
        (Packet.Background ((1000 * vmm_no self) + round));
      Hashtbl.replace sent self
        (round :: Option.value ~default:[] (Hashtbl.find_opt sent self)))
    senders

(* Every member received every other member's packets exactly once, in
   publish order. *)
let complete endpoints sent received =
  List.iter
    (fun (at, _) ->
      let got =
        List.rev (Option.value ~default:[] (Hashtbl.find_opt received at))
      in
      List.iter
        (fun (from, _) ->
          if not (Address.equal from at) then
            Alcotest.(check (list int))
              (Printf.sprintf "%s from %s" (Address.to_string at)
                 (Address.to_string from))
              (List.rev
                 (Option.value ~default:[] (Hashtbl.find_opt sent from)))
              (List.filter_map
                 (function
                   | Packet.Background t when t / 1000 = vmm_no from ->
                       Some (t mod 1000)
                   | _ -> None)
                 got))
        endpoints)
    endpoints

let mcast_counter engine name = counter engine ("net.mcast." ^ name)

let no_gap_abandoned engine endpoints =
  List.iter
    (fun (self, _) ->
      let name = Address.to_string self ^ ".gaps_abandoned" in
      Alcotest.(check int) name 0 (mcast_counter engine name))
    endpoints

(* Whether vmm0 still holds [mseq] for retransmission: a NAK from vmm1 for
   it is served (counted) only if it is still in the window. *)
let vmm0_holds engine endpoints mseq =
  let before = mcast_counter engine "vmm0.retransmissions" in
  Sw_net.Multicast.handle
    (List.assoc (Address.Vmm 0) endpoints)
    (Packet.make ~src:(Address.Vmm 1) ~dst:(Address.Vmm 0) ~size:64 ~seq:0
       (Packet.Mcast_nak
          { group = 0; origin = Address.Vmm 0; from_mseq = mseq; to_mseq = mseq }));
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.ms 10));
  mcast_counter engine "vmm0.retransmissions" > before

(* A partitioned receiver's last reported horizon holds the sender's window
   open: the other peers move on and the sender prunes what they all have,
   yet once the partition heals the receiver NAKs its whole backlog back. *)
let test_window_partition () =
  let engine, endpoints, received = mcast_setup () in
  let sent = Hashtbl.create 4 in
  let all = List.map fst endpoints in
  let v0 = Address.Vmm 0 and v1 = Address.Vmm 1 and v2 = Address.Vmm 2 in
  for round = 0 to 9 do
    publish_round endpoints sent ~round all;
    Engine.run engine
  done;
  (* vmm2 reports that it expects vmm0's mseq 10 next. *)
  publish_round endpoints sent ~round:10 [ v2 ];
  Engine.run engine;
  Alcotest.(check bool) "mseq 0 pruned once every peer has it" false
    (vmm0_holds engine endpoints 0);
  Sw_net.Multicast.set_partitioned (List.assoc v2 endpoints) true;
  for round = 11 to 40 do
    publish_round endpoints sent ~round [ v0; v1 ];
    Engine.run engine
  done;
  Alcotest.(check bool) "vmm1 has mseq 10, vmm0 still holds it for vmm2" true
    (vmm0_holds engine endpoints 10);
  Sw_net.Multicast.set_partitioned (List.assoc v2 endpoints) false;
  for round = 41 to 42 do
    publish_round endpoints sent ~round all;
    Engine.run engine
  done;
  complete endpoints sent received;
  no_gap_abandoned engine endpoints;
  Alcotest.(check bool) "the backlog came back by NAK" true
    (mcast_counter engine "vmm2.naks" > 0);
  Alcotest.(check bool) "healed vmm2's report releases the backlog" false
    (vmm0_holds engine endpoints 10)

(* On a lossy fabric (NAK recovery, heartbeats for tail losses) every
   member publishes and prunes, and nothing is lost or abandoned. *)
let test_window_loss () =
  let engine, endpoints, received =
    mcast_setup ~loss:0.1 ~heartbeat:(Time.ms 5) ()
  in
  let sent = Hashtbl.create 4 in
  for round = 0 to 199 do
    publish_round endpoints sent ~round (List.map fst endpoints);
    Engine.run engine ~until:(Time.add (Engine.now engine) (Time.ms 1))
  done;
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.s 1));
  complete endpoints sent received;
  no_gap_abandoned engine endpoints;
  Alcotest.(check bool) "losses were repaired" true
    (mcast_counter engine "vmm0.retransmissions" > 0);
  Alcotest.(check bool) "the window slid" false (vmm0_holds engine endpoints 0)

(* A three-replica StopWatch probe receiver with the degradation machinery
   on, pinged every 5 ms for 1 s under [faults]; returns the deployment
   and the metric snapshot at 1 s. *)
let probe_cloud faults =
  let module Cloud = Stopwatch.Cloud in
  let config =
    {
      Sw_vmm.Config.default with
      Sw_vmm.Config.replay_log = true;
      vmm_heartbeat = Some (Time.ms 5);
      watchdog =
        Some { Sw_vmm.Config.timeout = Time.ms 25; period = Time.ms 10; retries = 2 };
    }
  in
  let cloud = Cloud.create ~config ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:(Sw_apps.Probe.receiver ()) in
  ignore (Cloud.install_faults cloud faults);
  let client = Cloud.add_host cloud () in
  let n = ref 0 in
  let rec ping () =
    Stopwatch.Host.after client (Time.ms 5) (fun () ->
        incr n;
        Stopwatch.Host.send client ~dst:(Cloud.vm_address d) ~size:100
          (Packet.App (Sw_net.Msg.Probe_ping !n));
        ping ())
  in
  ping ();
  Cloud.run cloud ~until:(Time.s 1);
  (d, Cloud.metrics_snapshot cloud)

let counters_ending snap suffix =
  List.filter_map
    (fun (name, data) ->
      match data with
      | Sw_obs.Snapshot.Counter c when String.ends_with ~suffix name ->
          Some (name, c)
      | _ -> None)
    (Sw_obs.Snapshot.to_list snap)

(* All four endpoints (the ingress and three VMMs) abandoned nothing. *)
let no_cloud_gap_abandoned snap =
  let gaps = counters_ending snap ".gaps_abandoned" in
  Alcotest.(check int) "every endpoint counts its gaps" 4 (List.length gaps);
  List.iter (fun (name, c) -> Alcotest.(check int) name 0 c) gaps

(* 5 % loss on every link from 500 to 700 ms: NAKs repair it inside the
   windows, every replica delivers every packet, none late. (A 500 ms loss
   window counts 3 Late_median divergences, with or without the window:
   NAK recovery can outlast delta_n.) *)
let test_window_cloud_loss () =
  let _, snap =
    probe_cloud
      [
        Sw_fault.Schedule.at ~span:(Time.ms 200) (Time.ms 500)
          (Sw_fault.Fault.Link_loss { target = None; p = 0.05 });
      ]
  in
  no_cloud_gap_abandoned snap;
  Alcotest.(check int) "divergences" 0 (Metric.counter snap "vm0.divergences");
  Alcotest.(check bool) "the loss cost retransmissions" true
    (List.exists (fun (_, c) -> c > 0) (counters_ending snap ".retransmissions"));
  match List.map snd (counters_ending snap ".net_deliveries") with
  | [ a; b; c ] when a > 0 && a = b && b = c -> ()
  | l ->
      Alcotest.failf "replica deliveries differ: %s"
        (String.concat " " (List.map string_of_int l))

(* Replica 1 crashes at 100 ms and restarts 300 ms later. Its endpoint keeps
   its receive state but publishes nothing while crashed, so its last
   horizon report holds the others' windows open; it is ejected,
   resynced, reintegrated, and delivers again, with no gap abandoned
   anywhere. (The degraded quorum of one while it is out counts Late_median
   divergences by design; they are not the window's to prevent.) *)
let test_window_crash_restart () =
  let d, snap =
    probe_cloud
      [
        Sw_fault.Schedule.at (Time.ms 100)
          (Sw_fault.Fault.Replica_crash
             { vm = 0; replica = 1; restart_after = Some (Time.ms 300) });
      ]
  in
  no_cloud_gap_abandoned snap;
  Alcotest.(check int) "reintegrated" 1 (Metric.counter snap "vm0.reintegrations");
  Alcotest.(check int) "full quorum again" 3
    (Sw_vmm.Replica_group.quorum (Stopwatch.Cloud.group d))

(* --- Ingress / egress ------------------------------------------------------------ *)

let test_ingress_replicates () =
  let engine, net = setup () in
  let ingress = Sw_net.Ingress.create net in
  let channel =
    Sw_net.Multicast.group net ~id:0
      ~members:[ Address.Ingress; Address.Vmm 0; Address.Vmm 1; Address.Vmm 2 ]
      ()
  in
  let got = Hashtbl.create 4 in
  List.iter
    (fun m ->
      let ep =
        Sw_net.Multicast.endpoint channel ~self:(Address.Vmm m)
          ~deliver:(fun pkt ->
            match pkt.Packet.payload with
            | Packet.Guest_bound { vm; ingress_seq; inner } ->
                Hashtbl.replace got m (vm, ingress_seq, inner.Packet.payload)
            | _ -> ())
          ()
      in
      Net.register net (Address.Vmm m) (Sw_net.Multicast.handle ep))
    [ 0; 1; 2 ];
  Sw_net.Ingress.register_vm ingress ~vm:7 ~channel ~replicas:3;
  send net ~src:(Address.Host 0) ~dst:(Address.Vm 7) (Packet.Background 42);
  Engine.run engine;
  List.iter
    (fun m ->
      match Hashtbl.find_opt got m with
      | Some (7, 0, Packet.Background 42) -> ()
      | _ -> Alcotest.failf "machine %d did not get the replica" m)
    [ 0; 1; 2 ];
  Alcotest.(check int) "replicated count" 1 (counter engine "net.ingress.replicated")

let test_ingress_drops_unknown () =
  let engine, net = setup () in
  let (_ : Sw_net.Ingress.t) = Sw_net.Ingress.create net in
  Net.set_route net ~dst:(Address.Vm 9) ~via:Address.Ingress;
  send net ~src:(Address.Host 0) ~dst:(Address.Vm 9) (Packet.Background 1);
  Engine.run engine;
  Alcotest.(check int) "dropped" 1 (counter engine "net.ingress.dropped")

let egress_copy net ~vm ~replica ~seq payload =
  let inner =
    Packet.make ~src:(Address.Vm vm) ~dst:(Address.Host 1) ~size:100 ~seq payload
  in
  Net.send net
    (Packet.make ~src:(Address.Vmm replica) ~dst:Address.Egress ~size:148
       ~seq:(Net.fresh_seq net)
       (Packet.Egress_tunnel { vm; replica; inner }))

let test_egress_releases_on_second_copy () =
  let engine, net = setup () in
  let egress = Sw_net.Egress.create net in
  Sw_net.Egress.register_vm egress ~vm:7 ~replicas:3;
  let arrivals = ref [] in
  Net.register net (Address.Host 1) (fun pkt ->
      arrivals := (Engine.now engine, pkt.Packet.payload) :: !arrivals);
  (* Copies from the three replicas at 0, 5 and 9 ms: the median (2nd) copy
     at 5 ms must trigger the single forward. *)
  egress_copy net ~vm:7 ~replica:0 ~seq:0 (Packet.Background 1);
  Engine.schedule_at engine (Time.ms 5) (fun () ->
      egress_copy net ~vm:7 ~replica:1 ~seq:0 (Packet.Background 1));
  Engine.schedule_at engine (Time.ms 9) (fun () ->
      egress_copy net ~vm:7 ~replica:2 ~seq:0 (Packet.Background 1));
  Engine.run engine;
  (match !arrivals with
  | [ (at, Packet.Background 1) ] ->
      (* 5 ms (second copy sent) + 1 ms to egress + 1 ms to host. *)
      Alcotest.(check int) "released at median" (Time.ms 7) at
  | _ -> Alcotest.fail "exactly one forward expected");
  Alcotest.(check int) "forwarded" 1 (counter engine "net.egress.forwarded")

let test_egress_five_replicas () =
  let engine, net = setup () in
  let egress = Sw_net.Egress.create net in
  Sw_net.Egress.register_vm egress ~vm:7 ~replicas:5;
  let count = ref 0 in
  Net.register net (Address.Host 1) (fun _ -> incr count);
  for r = 0 to 4 do
    Engine.schedule_at engine (Time.ms r) (fun () ->
        egress_copy net ~vm:7 ~replica:r ~seq:0 (Packet.Background 1))
  done;
  Engine.run engine;
  Alcotest.(check int) "one release from five copies" 1 !count

let test_egress_output_vote () =
  let engine, net = setup () in
  let egress = Sw_net.Egress.create net in
  Sw_net.Egress.register_vm egress ~vm:7 ~replicas:3;
  Net.register net (Address.Host 1) (fun _ -> ());
  egress_copy net ~vm:7 ~replica:0 ~seq:0 (Packet.Background 1);
  egress_copy net ~vm:7 ~replica:1 ~seq:0 (Packet.Background 1);
  (* The third replica diverged and emitted different content. *)
  egress_copy net ~vm:7 ~replica:2 ~seq:0 (Packet.Background 999);
  Engine.run engine;
  Alcotest.(check int) "vote failure detected" 1
    (counter engine "net.egress.mismatches");
  Alcotest.(check int) "still released on median copy" 1
    (counter engine "net.egress.forwarded");
  (* Copies that differ only deep inside a TCP segment's message: the vote
     compares whole payloads, not a bounded hash of their first words. *)
  let reply tier =
    Packet.Tcp
      {
        Sw_net.Msg.conn = 1;
        kind = Sw_net.Msg.Data;
        seq = 0;
        len = 64;
        ack = 0;
        msg_end = Some (Sw_net.Msg.Wl_resp { seq = 5; tier });
      }
  in
  egress_copy net ~vm:7 ~replica:0 ~seq:1 (reply 1);
  egress_copy net ~vm:7 ~replica:1 ~seq:1 (reply 1);
  egress_copy net ~vm:7 ~replica:2 ~seq:1 (reply 2);
  Engine.run engine;
  Alcotest.(check int) "divergent segment message detected" 2
    (counter engine "net.egress.mismatches")

let test_egress_even_replicas_rejected () =
  let _, net = setup () in
  let egress = Sw_net.Egress.create net in
  Alcotest.check_raises "even replicas" (Invalid_argument "x") (fun () ->
      try Sw_net.Egress.register_vm egress ~vm:1 ~replicas:2 with
      | Invalid_argument _ -> raise (Invalid_argument "x"))

let () =
  Alcotest.run "sw_net"
    [
      ( "links",
        [
          Alcotest.test_case "latency" `Quick test_latency;
          Alcotest.test_case "serialisation" `Quick test_serialisation;
          Alcotest.test_case "fifo under jitter" `Quick test_fifo_no_reorder;
          Alcotest.test_case "loss" `Quick test_loss;
        ] );
      ( "routing",
        [
          Alcotest.test_case "route rewrite" `Quick test_route_rewrite;
          Alcotest.test_case "undeliverable" `Quick test_undeliverable;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "broadcast order" `Quick test_broadcast_order;
          Alcotest.test_case "node link override" `Quick test_node_link_override;
        ] );
      ( "resolved links",
        [
          Alcotest.test_case "re-register after traffic" `Quick
            test_reregister_after_traffic;
          Alcotest.test_case "route after traffic" `Quick test_route_after_traffic;
          Alcotest.test_case "routed pairs share a FIFO" `Quick
            test_routed_pairs_share_fifo;
          Alcotest.test_case "no counter without a delivery" `Quick
            test_no_counter_without_delivery;
        ] );
      ( "multicast",
        [
          Alcotest.test_case "basic fan-out" `Quick test_mcast_basic;
          Alcotest.test_case "loss recovery" `Quick test_mcast_loss_recovery;
          Alcotest.test_case "rejects foreign packets" `Quick test_mcast_rejects_foreign;
          QCheck_alcotest.to_alcotest prop_mcast_order;
          Alcotest.test_case "window held for a partitioned receiver" `Quick
            test_window_partition;
          Alcotest.test_case "window under link loss" `Quick test_window_loss;
          Alcotest.test_case "cloud window under link loss" `Quick
            test_window_cloud_loss;
          Alcotest.test_case "cloud window across crash and restart" `Quick
            test_window_crash_restart;
        ] );
      ( "address",
        [
          QCheck_alcotest.to_alcotest prop_index_injective;
          QCheck_alcotest.to_alcotest prop_compare_matches_stdlib;
          QCheck_alcotest.to_alcotest prop_equal_matches_stdlib;
          Alcotest.test_case "index pinned" `Quick test_index_pinned;
        ] );
      ( "ingress-egress",
        [
          Alcotest.test_case "ingress replicates" `Quick test_ingress_replicates;
          Alcotest.test_case "ingress drops unknown" `Quick test_ingress_drops_unknown;
          Alcotest.test_case "egress median release" `Quick
            test_egress_releases_on_second_copy;
          Alcotest.test_case "egress with five replicas" `Quick
            test_egress_five_replicas;
          Alcotest.test_case "egress output vote" `Quick test_egress_output_vote;
          Alcotest.test_case "egress rejects even replica count" `Quick
            test_egress_even_replicas_rejected;
        ] );
    ]
