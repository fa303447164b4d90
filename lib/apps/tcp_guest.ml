module App = Sw_vm.App
module Address = Sw_net.Address
module Packet = Sw_net.Packet
module Int_tbl = Sw_obs.Int_tbl

type conn_key = { peer : Address.t; conn : int }

type conn_event =
  | Accepted of conn_key
  | Msg of { key : conn_key; payload : Sw_net.Msg.t; bytes : int }
  | Conn_closed of conn_key

let tag_base = 1_000_000

type t = {
  config : Tcp.config;
  conns : Tcp.t Int_tbl.t;  (** By {!slot}. *)
  timers : (conn_key * int) Int_tbl.t;  (** guest tag -> (conn, tcp id) *)
  mutable next_tag : int;
}

let create ?(config = Tcp.default_config) () =
  { config; conns = Int_tbl.create 8; timers = Int_tbl.create 8; next_tag = tag_base }

(* A connection's key in [conns]: the peer's address index above the
   connection id, which peers number upward from 1. *)
let slot key =
  if key.conn < 0 || key.conn >= 1 lsl 31 then
    invalid_arg "Tcp_guest: connection id out of range";
  (Address.index key.peer lsl 31) lor key.conn

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
          Int_tbl.replace t.timers tag (key, id);
          actions := App.Set_timer { after; tag } :: !actions
      | Tcp.Connected -> events := Accepted key :: !events
      | Tcp.Closed ->
          Int_tbl.remove t.conns (slot key);
          events := Conn_closed key :: !events)
    outputs;
  (List.rev !events, List.rev !actions)

let endpoint_for t key ~create_passive =
  let s = slot key in
  match Int_tbl.find_opt t.conns s with
  | Some ep -> Some ep
  | None ->
      if create_passive then begin
        let ep = Tcp.create ~config:t.config ~conn:key.conn ~initiator:false in
        Int_tbl.add t.conns s ep;
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
      match Int_tbl.find_opt t.timers tag with
      | None -> if tag >= tag_base then Some ([], []) else None
      | Some (key, id) -> (
          Int_tbl.remove t.timers tag;
          match Int_tbl.find_opt t.conns (slot key) with
          | None -> Some ([], [])
          | Some ep -> Some (run_outputs t key (Tcp.step ep (Tcp.Timer_fired id)))))
  | App.Boot | App.Disk_done _ | App.Dma_done _ | App.Tick -> None

let send t key ~payload ~bytes =
  match Int_tbl.find_opt t.conns (slot key) with
  | None -> invalid_arg "Tcp_guest.send: unknown connection"
  | Some ep -> snd (run_outputs t key (Tcp.step ep (Tcp.Send_msg { payload; bytes })))
