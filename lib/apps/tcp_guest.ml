module App = Sw_vm.App
module Address = Sw_net.Address
module Packet = Sw_net.Packet

type conn_key = { peer : Address.t; conn : int }

type conn_event =
  | Accepted of conn_key
  | Msg of { key : conn_key; payload : Sw_net.Msg.t; bytes : int }
  | Conn_closed of conn_key

let tag_base = 1_000_000

type t = {
  config : Tcp.config;
  conns : (conn_key, Tcp.t) Hashtbl.t;
  timers : (int, conn_key * int) Hashtbl.t;  (** guest tag -> (conn, tcp id) *)
  mutable next_tag : int;
}

let create ?(config = Tcp.default_config) () =
  { config; conns = Hashtbl.create 8; timers = Hashtbl.create 8; next_tag = tag_base }

(* Translate TCP outputs into guest actions + connection events. *)
let run_outputs t key outputs =
  let events = ref [] and actions = ref [] in
  List.iter
    (fun output ->
      match output with
      | Tcp.Emit seg ->
          actions :=
            App.Send
              {
                dst = key.peer;
                size = Tcp.seg_size t.config seg;
                payload = Packet.Tcp seg;
              }
            :: !actions
      | Tcp.Deliver { payload; bytes } -> events := Msg { key; payload; bytes } :: !events
      | Tcp.Set_timer { id; after } ->
          let tag = t.next_tag in
          t.next_tag <- tag + 1;
          Hashtbl.replace t.timers tag (key, id);
          actions := App.Set_timer { after; tag } :: !actions
      | Tcp.Connected -> events := Accepted key :: !events
      | Tcp.Closed ->
          Hashtbl.remove t.conns key;
          events := Conn_closed key :: !events)
    outputs;
  (List.rev !events, List.rev !actions)

let endpoint_for t key ~create_passive =
  match Hashtbl.find_opt t.conns key with
  | Some ep -> Some ep
  | None ->
      if create_passive then begin
        let ep = Tcp.create ~config:t.config ~conn:key.conn ~initiator:false in
        Hashtbl.add t.conns key ep;
        Some ep
      end
      else None

let handle t event =
  match event with
  | App.Packet_in pkt -> (
      match pkt.Packet.payload with
      | Packet.Tcp seg -> (
          let key = { peer = pkt.Packet.src; conn = seg.conn } in
          match endpoint_for t key ~create_passive:(seg.kind = Sw_net.Msg.Syn) with
          | None -> Some ([], [])
          | Some ep -> Some (run_outputs t key (Tcp.step ep (Tcp.Seg_in seg))))
      | _ -> None)
  | App.Timer { tag } -> (
      match Hashtbl.find_opt t.timers tag with
      | None -> if tag >= tag_base then Some ([], []) else None
      | Some (key, id) -> (
          Hashtbl.remove t.timers tag;
          match Hashtbl.find_opt t.conns key with
          | None -> Some ([], [])
          | Some ep -> Some (run_outputs t key (Tcp.step ep (Tcp.Timer_fired id)))))
  | App.Boot | App.Disk_done _ | App.Dma_done _ | App.Tick -> None

let send t key ~payload ~bytes =
  match Hashtbl.find_opt t.conns key with
  | None -> invalid_arg "Tcp_guest.send: unknown connection"
  | Some ep -> snd (run_outputs t key (Tcp.step ep (Tcp.Send_msg { payload; bytes })))
