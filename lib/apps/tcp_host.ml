module Host = Stopwatch.Host
module Packet = Sw_net.Packet
module Int_tbl = Sw_obs.Int_tbl

type conn = {
  registry : t;
  id : int;
  dst : Sw_net.Address.t;
  ep : Tcp.t;
  on_connected : unit -> unit;
  on_msg : payload:Sw_net.Msg.t -> bytes:int -> unit;
}

and t = {
  host : Host.t;
  config : Tcp.config;
  conns : conn Int_tbl.t;
  mutable next_conn : int;
}

let rec run_outputs c outputs =
  List.iter
    (fun output ->
      match output with
      | Tcp.Emit seg ->
          Host.send c.registry.host ~dst:c.dst
            ~size:(Tcp.seg_size c.registry.config seg)
            (Packet.Tcp seg)
      | Tcp.Deliver { payload; bytes } -> c.on_msg ~payload ~bytes
      | Tcp.Set_timer { id; after } ->
          Host.after c.registry.host after (fun () ->
              run_outputs c (Tcp.step c.ep (Tcp.Timer_fired id)))
      | Tcp.Connected -> c.on_connected ()
      | Tcp.Closed -> Int_tbl.remove c.registry.conns c.id)
    outputs

let handle t pkt =
  match pkt.Packet.payload with
  | Packet.Tcp seg -> (
      match Int_tbl.find_opt t.conns seg.conn with
      | Some c -> run_outputs c (Tcp.step c.ep (Tcp.Seg_in seg))
      | None -> () (* Late segment for a closed connection. *))
  | _ -> ()

let attach host ?(config = Tcp.default_config) () =
  let t = { host; config; conns = Int_tbl.create 8; next_conn = 1 } in
  Host.set_handler host (handle t);
  t

let host t = t.host

let connect t ~dst ?(on_connected = fun () -> ()) ~on_msg () =
  let id = t.next_conn in
  t.next_conn <- id + 1;
  let ep = Tcp.create ~config:t.config ~conn:id ~initiator:true in
  let c = { registry = t; id; dst; ep; on_connected; on_msg } in
  Int_tbl.add t.conns id c;
  run_outputs c (Tcp.step ep Tcp.Open);
  c

let send c ~payload ~bytes = run_outputs c (Tcp.step c.ep (Tcp.Send_msg { payload; bytes }))
let close c = run_outputs c (Tcp.step c.ep Tcp.Close)
