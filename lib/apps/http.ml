module App = Sw_vm.App
module Msg = Sw_net.Msg
module Time = Sw_sim.Time

type request = {
  key : Tcp_guest.conn_key;
  file : int;
  size : int;
  mutable read_offset : int;  (** Bytes read from disk so far. *)
  mutable sent_offset : int;  (** Bytes already handed to TCP. *)
}

type state = {
  tcp : Tcp_guest.t;
  requests : (int, request) Hashtbl.t;  (** keyed by disk tag *)
  mutable next_tag : int;
  chunk_bytes : int;
}

let header_bytes = 200

let server ?tcp ?(chunk_bytes = 256 * 1024) () () =
  let st =
    {
      tcp = Tcp_guest.create ?config:tcp ();
      requests = Hashtbl.create 8;
      next_tag = 0;
      chunk_bytes;
    }
  in
  let start_request key file size =
    let tag = st.next_tag in
    st.next_tag <- tag + 1;
    let req = { key; file; size; read_offset = 0; sent_offset = 0 } in
    Hashtbl.replace st.requests tag req;
    let chunk = Stdlib.min size st.chunk_bytes in
    req.read_offset <- chunk;
    [ App.Disk_read { bytes = chunk; sequential = false; tag } ]
  in
  (* A chunk has arrived from disk: hand it to TCP immediately and start the
     next read, overlapping disk and network (as a real server does). *)
  let continue_request tag =
    match Hashtbl.find_opt st.requests tag with
    | None -> []
    | Some req ->
        let chunk_len = req.read_offset - req.sent_offset in
        let first = req.sent_offset = 0 in
        req.sent_offset <- req.read_offset;
        let send =
          Tcp_guest.send st.tcp req.key
            ~payload:(Msg.Http_response { file = req.file })
            ~bytes:(chunk_len + if first then header_bytes else 0)
        in
        if req.read_offset < req.size then begin
          let chunk = Stdlib.min (req.size - req.read_offset) st.chunk_bytes in
          req.read_offset <- req.read_offset + chunk;
          App.Disk_read { bytes = chunk; sequential = true; tag } :: send
        end
        else begin
          Hashtbl.remove st.requests tag;
          send
        end
  in
  let handle_conn_event ev =
    match ev with
    | Tcp_guest.Msg { key; payload = Msg.Http_get { file; size }; _ } ->
        start_request key file size
    | Tcp_guest.Msg _ | Tcp_guest.Accepted _ | Tcp_guest.Conn_closed _ -> []
  in
  {
    App.handle =
      (fun ~virt_now:_ event ->
        match Tcp_guest.handle st.tcp event with
        | Some (conn_events, actions) ->
            actions @ List.concat_map handle_conn_event conn_events
        | None -> (
            match event with
            | App.Disk_done { tag } -> continue_request tag
            | _ -> []));
  }

let download t ~dst ~file ~size ~on_done () =
  let host = Tcp_host.host t in
  let started = Stopwatch.Host.now host in
  let conn_ref = ref None in
  let received = ref 0 in
  let on_msg ~payload ~bytes =
    match payload with
    | Msg.Http_response { file = f } when f = file ->
        received := !received + bytes;
        if !received >= size + header_bytes then begin
          let elapsed_ms =
            Time.to_float_ms (Time.sub (Stopwatch.Host.now host) started)
          in
          Option.iter Tcp_host.close !conn_ref;
          on_done ~elapsed_ms
        end
    | _ -> ()
  in
  let conn =
    Tcp_host.connect t ~dst
      ~on_connected:(fun () ->
        match !conn_ref with
        | Some c ->
            Tcp_host.send c ~payload:(Msg.Http_get { file; size }) ~bytes:header_bytes
        | None -> ())
      ~on_msg ()
  in
  conn_ref := Some conn
