module App = Sw_vm.App
module Packet = Sw_net.Packet
module Msg = Sw_net.Msg
module Time = Sw_sim.Time
module Host = Stopwatch.Host

let datagram_bytes = 1400
let header = 28

type transfer = {
  client : Sw_net.Address.t;
  file : int;
  size : int;
  mutable read_offset : int;  (** Bytes read from disk so far. *)
  mutable sent_offset : int;  (** Bytes already streamed out. *)
}

type state = {
  transfers : (int, transfer) Hashtbl.t;  (** keyed by disk tag *)
  mutable next_tag : int;
  chunk_bytes : int;
  inter_send_branches : int;
}

(* Emit the stream of datagrams for byte range [from, upto). *)
let stream st tr ~from ~upto =
  let rec go offset acc =
    if offset >= upto then List.rev acc
    else begin
      let len = Stdlib.min datagram_bytes (upto - offset) in
      let last = offset + len >= tr.size in
      let send =
        App.Send
          {
            dst = tr.client;
            size = len + header;
            payload = Packet.App (Msg.Udp_data { file = tr.file; offset; len; last });
          }
      in
      go (offset + len) (send :: App.Compute st.inter_send_branches :: acc)
    end
  in
  go from []

let server ?(chunk_bytes = 256 * 1024) ?(inter_send_branches = 2000) () () =
  let st =
    {
      transfers = Hashtbl.create 8;
      next_tag = 0;
      chunk_bytes;
      inter_send_branches;
    }
  in
  (* Transfers kept (also after completion) for NAK-triggered resends. *)
  let by_file : (int, transfer) Hashtbl.t = Hashtbl.create 8 in
  (* A chunk is in: stream it out and start the next read, overlapping disk
     and network. *)
  let continue_read tag =
    match Hashtbl.find_opt st.transfers tag with
    | None -> []
    | Some tr ->
        let sends = stream st tr ~from:tr.sent_offset ~upto:tr.read_offset in
        tr.sent_offset <- tr.read_offset;
        if tr.read_offset < tr.size then begin
          let chunk = Stdlib.min (tr.size - tr.read_offset) st.chunk_bytes in
          tr.read_offset <- tr.read_offset + chunk;
          App.Disk_read { bytes = chunk; sequential = true; tag } :: sends
        end
        else begin
          Hashtbl.remove st.transfers tag;
          sends
        end
  in
  {
    App.handle =
      (fun ~virt_now:_ event ->
        match event with
        | App.Packet_in pkt -> (
            match pkt.Packet.payload with
            | Packet.App (Msg.Udp_request { file; size }) ->
                let tag = st.next_tag in
                st.next_tag <- tag + 1;
                let tr =
                  { client = pkt.Packet.src; file; size; read_offset = 0; sent_offset = 0 }
                in
                let chunk = Stdlib.min size st.chunk_bytes in
                tr.read_offset <- chunk;
                Hashtbl.replace st.transfers tag tr;
                Hashtbl.replace by_file file tr;
                [ App.Disk_read { bytes = chunk; sequential = false; tag } ]
            | Packet.App (Msg.Udp_nak { file; from_offset }) -> (
                (* Resend whatever has already been read. *)
                match Hashtbl.find_opt by_file file with
                | Some tr when tr.sent_offset > from_offset ->
                    stream st tr ~from:from_offset ~upto:tr.sent_offset
                | _ -> [])
            | _ -> [])
        | App.Disk_done { tag } -> continue_read tag
        | _ -> []);
  }

let fetch host ~dst ~file ~size ?(nak_delay = Time.ms 20) ~on_done () =
  let started = Host.now host in
  let next_expected = ref 0 in
  let naks = ref 0 in
  let finished = ref false in
  (* Received-but-not-yet-contiguous datagrams: offset -> end offset. *)
  let stashed : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec advance () =
    match Hashtbl.find_opt stashed !next_expected with
    | Some stop ->
        Hashtbl.remove stashed !next_expected;
        next_expected := stop;
        advance ()
    | None -> ()
  in
  let rec watchdog expected_at_arm =
    Host.after host nak_delay (fun () ->
        if (not !finished) && !next_expected = expected_at_arm then begin
          incr naks;
          Host.send host ~dst ~size:64
            (Packet.App (Msg.Udp_nak { file; from_offset = !next_expected }));
          watchdog !next_expected
        end)
  in
  Host.set_handler host (fun pkt ->
      match pkt.Packet.payload with
      | Packet.App (Msg.Udp_data { file = f; offset; len; _ })
        when f = file && not !finished ->
          if offset > !next_expected then begin
            Hashtbl.replace stashed offset
              (Stdlib.max (offset + len)
                 (match Hashtbl.find_opt stashed offset with Some e -> e | None -> 0));
            watchdog !next_expected
          end
          else if offset + len > !next_expected then begin
            next_expected := offset + len;
            advance ()
          end;
          if !next_expected >= size then begin
            finished := true;
            let elapsed_ms = Time.to_float_ms (Time.sub (Host.now host) started) in
            on_done ~elapsed_ms ~naks:!naks
          end
      | _ -> ());
  Host.send host ~dst ~size:(64 + header)
    (Packet.App (Msg.Udp_request { file; size }))
