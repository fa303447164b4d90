(* Tests for the application layer: the pure TCP machine (with an in-memory
   duplex harness), the HTTP/UDP/NFS services end-to-end on small clouds, and
   the PARSEC application model. *)

module Time = Sw_sim.Time
module Tcp = Sw_apps.Tcp
module Msg = Sw_net.Msg
module App = Sw_vm.App
module Cloud = Stopwatch.Cloud
module Host = Stopwatch.Host


(* --- In-memory duplex harness for the pure TCP machine --------------------- *)

type side = {
  ep : Tcp.t;
  mutable delivered : (Msg.t * int) list;
  mutable timers : (int * Time.t) list;
  mutable connected : bool;
  mutable closed : bool;
  mutable emitted : int;
}

let make_side ~config ~conn ~initiator =
  {
    ep = Tcp.create ~config ~conn ~initiator;
    delivered = [];
    timers = [];
    connected = false;
    closed = false;
    emitted = 0;
  }

(* Process outputs, forwarding emissions to the peer synchronously (a perfect
   zero-latency duplex pipe). *)
let rec perform side peer outputs =
  List.iter
    (fun output ->
      match output with
      | Tcp.Emit seg ->
          side.emitted <- side.emitted + 1;
          perform peer side (Tcp.step peer.ep (Tcp.Seg_in seg))
      | Tcp.Deliver { payload; bytes } ->
          side.delivered <- side.delivered @ [ (payload, bytes) ]
      | Tcp.Set_timer { id; after } -> side.timers <- side.timers @ [ (id, after) ]
      | Tcp.Connected -> side.connected <- true
      | Tcp.Closed -> side.closed <- true)
    outputs

let fire_timers side peer =
  let timers = side.timers in
  side.timers <- [];
  List.iter (fun (id, _) -> perform side peer (Tcp.step side.ep (Tcp.Timer_fired id))) timers

(* Fire delayed-ACK timers on both sides until the connection quiesces. *)
let settle a b =
  let rec loop n =
    if n > 0 && (a.timers <> [] || b.timers <> []) then begin
      fire_timers a b;
      fire_timers b a;
      loop (n - 1)
    end
  in
  loop 100

let connect ?(config = Tcp.default_config) () =
  let client = make_side ~config ~conn:1 ~initiator:true in
  let server = make_side ~config ~conn:1 ~initiator:false in
  perform client server (Tcp.step client.ep Tcp.Open);
  (client, server)

let test_tcp_handshake () =
  let client, server = connect () in
  Alcotest.(check bool) "client connected" true client.connected;
  Alcotest.(check bool) "server connected" true server.connected

let test_tcp_small_message () =
  let client, server = connect () in
  perform client server
    (Tcp.step client.ep (Tcp.Send_msg { payload = Msg.Stream_data 7; bytes = 100 }));
  (match server.delivered with
  | [ (Msg.Stream_data 7, 100) ] -> ()
  | _ -> Alcotest.fail "message must arrive once with exact size");
  Alcotest.(check int) "bytes delivered" 100 (Tcp.bytes_delivered server.ep)

let test_tcp_large_message_segments () =
  let client, server = connect () in
  let size = 100_000 in
  perform client server
    (Tcp.step client.ep (Tcp.Send_msg { payload = Msg.Stream_data 1; bytes = size }));
  settle client server;
  (match server.delivered with
  | [ (Msg.Stream_data 1, n) ] -> Alcotest.(check int) "full size" size n
  | _ -> Alcotest.fail "one message expected");
  Alcotest.(check int) "acked back to sender" size (Tcp.bytes_acked client.ep)

let test_tcp_many_messages_in_order () =
  let client, server = connect () in
  for i = 1 to 20 do
    perform client server
      (Tcp.step client.ep (Tcp.Send_msg { payload = Msg.Stream_data i; bytes = 500 + i }))
  done;
  settle client server;
  let got = List.map (fun (p, b) -> (p, b)) server.delivered in
  let expected = List.init 20 (fun i -> (Msg.Stream_data (i + 1), 501 + i)) in
  if got <> expected then Alcotest.fail "messages must arrive in order with sizes"

let test_tcp_bidirectional () =
  let client, server = connect () in
  perform client server
    (Tcp.step client.ep (Tcp.Send_msg { payload = Msg.Stream_data 1; bytes = 10 }));
  perform server client
    (Tcp.step server.ep (Tcp.Send_msg { payload = Msg.Stream_data 2; bytes = 20 }));
  (match (server.delivered, client.delivered) with
  | [ (Msg.Stream_data 1, 10) ], [ (Msg.Stream_data 2, 20) ] -> ()
  | _ -> Alcotest.fail "both directions deliver")

let test_tcp_close () =
  let client, server = connect () in
  perform client server
    (Tcp.step client.ep (Tcp.Send_msg { payload = Msg.Stream_data 1; bytes = 10 }));
  settle client server;
  perform client server (Tcp.step client.ep Tcp.Close);
  Alcotest.(check bool) "client closed" true client.closed;
  Alcotest.(check bool) "server closed" true server.closed

let test_tcp_nagle_coalesces () =
  let config = { Tcp.default_config with Tcp.nagle = true } in
  let client, server = connect ~config () in
  let before = client.emitted in
  (* First small message goes out; the next two are held behind the unacked
     data (the server's delayed-ACK timer has not fired). *)
  List.iter
    (fun i ->
      perform client server
        (Tcp.step client.ep (Tcp.Send_msg { payload = Msg.Stream_data i; bytes = 50 })))
    [ 1; 2; 3 ];
  let data_emitted = client.emitted - before in
  Alcotest.(check int) "only the first flies" 1 data_emitted;
  Alcotest.(check int) "one delivery so far" 1 (List.length server.delivered);
  (* The server's delayed ACK releases the second message; the third waits
     behind it (classic Nagle / delayed-ACK interplay), so quiescing the
     timers drains everything. *)
  fire_timers server client;
  Alcotest.(check int) "one released per ack" 2 (List.length server.delivered);
  settle client server;
  Alcotest.(check int) "all drained" 3 (List.length server.delivered)

let test_tcp_ooo_reassembly () =
  (* Feed data segments to a server endpoint out of order directly. *)
  let config = Tcp.default_config in
  let server = make_side ~config ~conn:1 ~initiator:false in
  let sink = make_side ~config ~conn:1 ~initiator:true in
  (* Handshake manually: Syn, then Ack. *)
  perform server sink (Tcp.step server.ep (Tcp.Seg_in
    { Msg.conn = 1; kind = Msg.Syn; seq = 0; len = 0; ack = 0; msg_end = None }));
  perform server sink (Tcp.step server.ep (Tcp.Seg_in
    { Msg.conn = 1; kind = Msg.Ack; seq = 0; len = 0; ack = 0; msg_end = None }));
  let seg ~seq ~len ~msg_end =
    { Msg.conn = 1; kind = Msg.Data; seq; len; ack = 0; msg_end }
  in
  (* Two segments delivered in reverse order; message ends at byte 200. *)
  perform server sink
    (Tcp.step server.ep
       (Tcp.Seg_in (seg ~seq:100 ~len:100 ~msg_end:(Some (Msg.Stream_data 5)))));
  Alcotest.(check int) "held until gap fills" 0 (List.length server.delivered);
  perform server sink (Tcp.step server.ep (Tcp.Seg_in (seg ~seq:0 ~len:100 ~msg_end:None)));
  match server.delivered with
  | [ (Msg.Stream_data 5, 200) ] -> ()
  | _ -> Alcotest.fail "reassembled message expected"

let prop_tcp_random_message_sizes =
  QCheck.Test.make ~name:"any message sequence arrives intact and in order"
    ~count:60
    QCheck.(list_of_size Gen.(1 -- 15) (int_range 1 20_000))
    (fun sizes ->
      let client, server = connect () in
      List.iteri
        (fun i bytes ->
          perform client server
            (Tcp.step client.ep (Tcp.Send_msg { payload = Msg.Stream_data i; bytes })))
        sizes;
      settle client server;
      let got = server.delivered in
      List.length got = List.length sizes
      && List.for_all2
           (fun (p, b) (i, expected) -> p = Msg.Stream_data i && b = expected)
           got
           (List.mapi (fun i s -> (i, s)) sizes))

(* --- Services end-to-end ----------------------------------------------------- *)

let test_http_small_download () =
  let cloud = Cloud.create ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:(Sw_apps.Http.server ()) in
  let client = Cloud.add_host cloud () in
  let tcp = Sw_apps.Tcp_host.attach client () in
  let result = ref nan in
  Sw_apps.Http.download tcp ~dst:(Cloud.vm_address d) ~file:1 ~size:10_000
    ~on_done:(fun ~elapsed_ms -> result := elapsed_ms)
    ();
  Cloud.run cloud ~until:(Time.s 10);
  if Float.is_nan !result then Alcotest.fail "download did not complete";
  Alcotest.(check int) "no divergences" 0 (Cloud.divergences d)

let test_udp_fetch_with_loss () =
  (* Drop 20% of server->client datagrams; NAK recovery must still complete
     the transfer. *)
  let cloud = Cloud.create ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:(Sw_apps.Udp_file.server ()) in
  let client = Cloud.add_host cloud () in
  Sw_net.Network.set_link (Cloud.network cloud) ~src:(Cloud.vm_address d)
    ~dst:(Host.address client)
    { Sw_net.Network.wan with Sw_net.Network.loss = 0.2 };
  let result = ref nan and naks = ref 0 in
  Sw_apps.Udp_file.fetch client ~dst:(Cloud.vm_address d) ~file:1 ~size:200_000
    ~on_done:(fun ~elapsed_ms ~naks:n ->
      result := elapsed_ms;
      naks := n)
    ();
  Cloud.run cloud ~until:(Time.s 60);
  if Float.is_nan !result then Alcotest.fail "lossy fetch did not complete";
  if !naks = 0 then Alcotest.fail "some NAKs expected under 20% loss"

let test_nfs_ops_complete () =
  let cloud = Cloud.create ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:(Sw_apps.Nfs.server ()) in
  let client = Cloud.add_host cloud () in
  let tcp = Sw_apps.Tcp_host.attach client ~config:Sw_apps.Nfs.client_tcp_config () in
  let get =
    Sw_apps.Nfs.run_client tcp ~dst:(Cloud.vm_address d) ~rate_per_s:100. ~procs:5
      ~ops:100 ()
  in
  Cloud.run cloud ~until:(Time.s 10);
  let stats = get () in
  Alcotest.(check int) "all issued" 100 stats.Sw_apps.Nfs.issued;
  Alcotest.(check int) "all completed" 100 stats.Sw_apps.Nfs.completed;
  Array.iter
    (fun l -> if l <= 0. then Alcotest.fail "non-positive latency")
    stats.Sw_apps.Nfs.latencies_ms

let test_nfs_mix_probabilities () =
  (* The op mix must sum to 1 and the picker must roughly respect it. *)
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. Sw_apps.Nfs.paper_mix in
  Alcotest.(check (float 1e-6)) "mix sums to 1" 1.0 total

let test_parsec_app_phases () =
  let sends = ref 0 and disk_reqs = ref 0 in
  let profile =
    { Sw_apps.Parsec.ferret with Sw_apps.Parsec.io_count = 5; compute_branches = 50_000 }
  in
  let app = Sw_apps.Parsec.app profile ~collector:(Sw_net.Address.Host 0) () in
  let sinks =
    {
      Sw_vm.Guest.send = (fun ~seq:_ ~instr:_ ~dst:_ ~size:_ ~payload:_ -> incr sends);
      disk = (fun ~kind:_ ~bytes:_ ~sequential:_ ~tag:_ ~instr:_ -> incr disk_reqs);
      dma = (fun ~bytes:_ ~tag:_ ~instr:_ -> ());
    }
  in
  let vt = Sw_vm.Virtual_time.create ~start:Time.zero ~slope_ns_per_branch:1.0 () in
  let guest = Sw_vm.Guest.create ~app ~vt ~sinks () in
  Sw_vm.Guest.boot guest;
  for tag = 0 to 4 do
    Sw_vm.Guest.run_branches guest 100_000;
    Sw_vm.Guest.inject guest (App.Disk_done { tag })
  done;
  Sw_vm.Guest.run_branches guest 100_000;
  Alcotest.(check int) "five disk requests" 5 !disk_reqs;
  Alcotest.(check int) "job-done sent" 1 !sends

let test_parsec_profiles_interrupt_counts () =
  (* Fig. 7(b)'s counts are baked into the profiles. *)
  List.iter2
    (fun (p : Sw_apps.Parsec.profile) expected ->
      Alcotest.(check int) p.Sw_apps.Parsec.name expected p.Sw_apps.Parsec.io_count)
    Sw_apps.Parsec.all_profiles [ 31; 38; 183; 293; 27 ]

let test_http_concurrent_clients () =
  (* Three clients download different sizes from the same replicated server
     simultaneously: the server's TCP adapter must keep the connections
     apart and every download must complete. Concurrent first-chunk reads
     queue at the disk, so delta_d is provisioned for the queueing depth
     (the paper sizes it from maximum *observed* access times). *)
  let config = { Sw_vmm.Config.default with Sw_vmm.Config.delta_d = Time.ms 30 } in
  let cloud = Cloud.create ~config ~machines:3 () in
  let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:(Sw_apps.Http.server ()) in
  let done_sizes = ref [] in
  List.iteri
    (fun i size ->
      let client = Cloud.add_host cloud () in
      let tcp = Sw_apps.Tcp_host.attach client () in
      Sw_apps.Http.download tcp ~dst:(Cloud.vm_address d) ~file:i ~size
        ~on_done:(fun ~elapsed_ms:_ -> done_sizes := size :: !done_sizes)
        ())
    [ 10_000; 50_000; 200_000 ];
  Cloud.run cloud ~until:(Time.s 20);
  Alcotest.(check (list int))
    "all three downloads complete"
    [ 10_000; 50_000; 200_000 ]
    (List.sort compare !done_sizes);
  Alcotest.(check int) "no divergences" 0 (Cloud.divergences d)

(* A guest echo service over TCP, for end-to-end stream testing. *)

let tcp_echo_server : Sw_vm.App.factory =
 fun () ->
  let tcpd = Sw_apps.Tcp_guest.create () in
  {
    App.handle =
      (fun ~virt_now:_ event ->
        match Sw_apps.Tcp_guest.handle tcpd event with
        | Some (conn_events, actions) ->
            actions
            @ List.concat_map
                (function
                  | Sw_apps.Tcp_guest.Msg { key; payload = Msg.Probe_ping n; bytes } ->
                      Sw_apps.Tcp_guest.send tcpd key ~payload:(Msg.Probe_echo n) ~bytes
                  | _ -> [])
                conn_events
        | None -> []);
  }

let prop_guest_tcp_echo_roundtrip =
  QCheck.Test.make
    ~name:"guest TCP echo returns every message intact over the cloud" ~count:8
    QCheck.(list_of_size Gen.(1 -- 8) (int_range 1 30_000))
    (fun sizes ->
      let cloud = Cloud.create ~machines:3 () in
      let d = Cloud.deploy cloud ~on:[ 0; 1; 2 ] ~app:tcp_echo_server in
      let client = Cloud.add_host cloud () in
      let tcp = Sw_apps.Tcp_host.attach client () in
      let got = ref [] in
      let conn = ref None in
      let c =
        Sw_apps.Tcp_host.connect tcp ~dst:(Cloud.vm_address d)
          ~on_connected:(fun () ->
            match !conn with
            | Some c ->
                List.iteri
                  (fun i bytes ->
                    Sw_apps.Tcp_host.send c ~payload:(Msg.Probe_ping i) ~bytes)
                  sizes
            | None -> ())
          ~on_msg:(fun ~payload ~bytes ->
            match payload with
            | Msg.Probe_echo n -> got := (n, bytes) :: !got
            | _ -> ())
          ()
      in
      conn := Some c;
      Cloud.run cloud ~until:(Time.s 30);
      List.rev !got = List.mapi (fun i s -> (i, s)) sizes)

let () =
  Alcotest.run "sw_apps"
    [
      ( "tcp",
        [
          Alcotest.test_case "handshake" `Quick test_tcp_handshake;
          Alcotest.test_case "small message" `Quick test_tcp_small_message;
          Alcotest.test_case "large message" `Quick test_tcp_large_message_segments;
          Alcotest.test_case "in-order stream" `Quick test_tcp_many_messages_in_order;
          Alcotest.test_case "bidirectional" `Quick test_tcp_bidirectional;
          Alcotest.test_case "close" `Quick test_tcp_close;
          Alcotest.test_case "nagle" `Quick test_tcp_nagle_coalesces;
          Alcotest.test_case "out-of-order reassembly" `Quick test_tcp_ooo_reassembly;
          QCheck_alcotest.to_alcotest prop_tcp_random_message_sizes;
        ] );
      ( "services",
        [
          Alcotest.test_case "http download" `Quick test_http_small_download;
          Alcotest.test_case "http concurrent clients" `Quick
            test_http_concurrent_clients;
          QCheck_alcotest.to_alcotest prop_guest_tcp_echo_roundtrip;
          Alcotest.test_case "udp with loss + naks" `Quick test_udp_fetch_with_loss;
          Alcotest.test_case "nfs ops complete" `Quick test_nfs_ops_complete;
          Alcotest.test_case "nfs mix" `Quick test_nfs_mix_probabilities;
          Alcotest.test_case "parsec phases" `Quick test_parsec_app_phases;
          Alcotest.test_case "parsec interrupt counts" `Quick
            test_parsec_profiles_interrupt_counts;
        ] );
    ]
