module Time = Sw_sim.Time
open Sw_net.Msg

type config = {
  mss : int;
  header : int;
  max_window : int;
  init_cwnd_segs : int;
  ack_every : int;
  delayed_ack : Time.t;
  nagle : bool;
}

let default_config =
  {
    mss = 1460;
    header = 40;
    max_window = 65536;
    init_cwnd_segs = 2;
    ack_every = 2;
    delayed_ack = Time.ms 40;
    nagle = false;
  }

let seg_size config seg = config.header + seg.len

type input =
  | Open
  | Seg_in of seg
  | Send_msg of { payload : Sw_net.Msg.t; bytes : int }
  | Timer_fired of int
  | Close

type output =
  | Emit of seg
  | Deliver of { payload : Sw_net.Msg.t; bytes : int }
  | Set_timer of { id : int; after : Sw_sim.Time.t }
  | Connected
  | Closed

type t = {
  config : config;
  conn : int;
  initiator : bool;
  mutable established : bool;
  mutable closed : bool;
  (* Send side *)
  mutable snd_enqueued : int;  (** Stream bytes accepted from the app. *)
  mutable snd_sent : int;  (** Stream bytes emitted in segments. *)
  mutable snd_una : int;  (** Lowest unacknowledged byte. *)
  mutable cwnd : int;
  mutable msg_ends : (int * Sw_net.Msg.t) list;
      (** Pending message boundaries (stream offset, payload), ascending. *)
  mutable fin_pending : bool;
  mutable fin_sent : bool;
  (* Receive side *)
  mutable rcv_next : int;
  mutable ooo : seg list;  (** Out-of-order segments, ascending by seq. *)
  mutable rcv_msg_start : int;  (** Start offset of the message in progress. *)
  mutable unacked_segs : int;
  mutable ack_timer : int option;  (** Pending delayed-ACK timer id. *)
  mutable next_timer_id : int;
}

let create ~config ~conn ~initiator =
  {
    config;
    conn;
    initiator;
    established = false;
    closed = false;
    snd_enqueued = 0;
    snd_sent = 0;
    snd_una = 0;
    cwnd = config.init_cwnd_segs * config.mss;
    msg_ends = [];
    fin_pending = false;
    fin_sent = false;
    rcv_next = 0;
    ooo = [];
    rcv_msg_start = 0;
    unacked_segs = 0;
    ack_timer = None;
    next_timer_id = 0;
  }

let conn t = t.conn
let is_established t = t.established
let bytes_delivered t = t.rcv_next
let bytes_acked t = t.snd_una

let mk t kind ~seq ~len ~msg_end =
  { conn = t.conn; kind; seq; len; ack = t.rcv_next; msg_end }

(* Emit as many data segments as the window allows. *)
let pump t =
  let outputs = ref [] in
  let continue = ref t.established in
  while !continue do
    let window = Stdlib.min t.cwnd t.config.max_window in
    let in_flight = t.snd_sent - t.snd_una in
    let available = t.snd_enqueued - t.snd_sent in
    let len = Stdlib.min t.config.mss (Stdlib.min available (window - in_flight)) in
    let nagle_hold =
      t.config.nagle && len < t.config.mss && len = available && in_flight > 0
    in
    if len <= 0 || nagle_hold then continue := false
    else begin
      (* Never let a segment span past a message boundary: truncate so the
         boundary's payload marker rides the segment ending exactly there.
         Pending boundaries always lie strictly beyond snd_sent. *)
      let seg_end = t.snd_sent + len in
      let len, msg_end =
        match t.msg_ends with
        | (off, payload) :: rest when off <= seg_end ->
            t.msg_ends <- rest;
            (off - t.snd_sent, Some payload)
        | _ -> (len, None)
      in
      outputs := mk t Data ~seq:t.snd_sent ~len ~msg_end :: !outputs;
      t.snd_sent <- t.snd_sent + len
    end
  done;
  (* Send FIN once everything is out and acknowledged. *)
  if
    t.fin_pending && (not t.fin_sent) && t.established
    && t.snd_sent = t.snd_enqueued
    && t.snd_una = t.snd_sent
  then begin
    t.fin_sent <- true;
    outputs := mk t Fin ~seq:t.snd_sent ~len:0 ~msg_end:None :: !outputs
  end;
  List.rev !outputs

let handle_ack t ack =
  if ack > t.snd_una then begin
    let newly = ack - t.snd_una in
    t.snd_una <- ack;
    (* Slow start: grow by one MSS per MSS acknowledged, up to the cap. *)
    t.cwnd <- Stdlib.min t.config.max_window (t.cwnd + Stdlib.min newly t.config.mss)
  end

(* Deliver message payloads whose boundary we have now passed; in-order
   segments carry their own marker. *)
let deliver_marker t seg outputs =
  match seg.msg_end with
  | Some payload ->
      let bytes = seg.seq + seg.len - t.rcv_msg_start in
      t.rcv_msg_start <- seg.seq + seg.len;
      outputs @ [ Deliver { payload; bytes } ]
  | None -> outputs

let rec drain_ooo t outputs =
  match t.ooo with
  | seg :: rest when seg.seq <= t.rcv_next ->
      t.ooo <- rest;
      if seg.seq + seg.len > t.rcv_next then begin
        t.rcv_next <- seg.seq + seg.len;
        let outputs = deliver_marker t seg outputs in
        drain_ooo t outputs
      end
      else drain_ooo t outputs
  | _ -> outputs

let insert_ooo t seg =
  let rec insert = function
    | [] -> [ seg ]
    | hd :: rest -> if seg.seq < hd.seq then seg :: hd :: rest else hd :: insert rest
  in
  t.ooo <- insert t.ooo

let ack_policy t outputs =
  t.unacked_segs <- t.unacked_segs + 1;
  if t.unacked_segs >= t.config.ack_every then begin
    t.unacked_segs <- 0;
    t.ack_timer <- None;
    outputs @ [ Emit (mk t Ack ~seq:0 ~len:0 ~msg_end:None) ]
  end
  else begin
    match t.ack_timer with
    | Some _ -> outputs
    | None ->
        let id = t.next_timer_id in
        t.next_timer_id <- id + 1;
        t.ack_timer <- Some id;
        outputs @ [ Set_timer { id; after = t.config.delayed_ack } ]
  end

let on_data t seg =
  handle_ack t seg.ack;
  let outputs = [] in
  let outputs =
    if seg.seq = t.rcv_next then begin
      t.rcv_next <- seg.seq + seg.len;
      let outputs = deliver_marker t seg outputs in
      drain_ooo t outputs
    end
    else if seg.seq > t.rcv_next then begin
      insert_ooo t seg;
      outputs
    end
    else outputs (* Duplicate; the ACK below covers it. *)
  in
  let outputs = ack_policy t outputs in
  outputs @ List.map (fun s -> Emit s) (pump t)

let step t input =
  if t.closed then []
  else
    match input with
    | Open ->
        if not t.initiator then invalid_arg "Tcp.step: Open on passive endpoint";
        [ Emit (mk t Syn ~seq:0 ~len:0 ~msg_end:None) ]
    | Send_msg { payload; bytes } ->
        if bytes <= 0 then invalid_arg "Tcp.step: message must have bytes";
        t.snd_enqueued <- t.snd_enqueued + bytes;
        t.msg_ends <- t.msg_ends @ [ (t.snd_enqueued, payload) ];
        List.map (fun seg -> Emit seg) (pump t)
    | Close ->
        t.fin_pending <- true;
        List.map (fun seg -> Emit seg) (pump t)
    | Timer_fired id -> (
        match t.ack_timer with
        | Some pending when pending = id ->
            t.ack_timer <- None;
            t.unacked_segs <- 0;
            [ Emit (mk t Ack ~seq:0 ~len:0 ~msg_end:None) ]
        | _ -> [])
    | Seg_in seg -> (
        match seg.kind with
        | Syn ->
            if t.initiator then []
            else [ Emit (mk t Synack ~seq:0 ~len:0 ~msg_end:None) ]
        | Synack ->
            if t.established then []
            else begin
              t.established <- true;
              Connected
              :: Emit (mk t Ack ~seq:0 ~len:0 ~msg_end:None)
              :: List.map (fun s -> Emit s) (pump t)
            end
        | Ack ->
            let was_established = t.established in
            if not t.established then t.established <- true;
            handle_ack t seg.ack;
            let outputs = List.map (fun s -> Emit s) (pump t) in
            let outputs =
              if (not was_established) && not t.initiator then Connected :: outputs
              else outputs
            in
            if t.fin_sent && t.snd_una = t.snd_sent && seg.ack >= t.snd_sent then begin
              t.closed <- true;
              outputs @ [ Closed ]
            end
            else outputs
        | Data -> on_data t seg
        | Fin ->
            handle_ack t seg.ack;
            t.closed <- true;
            [ Emit (mk t Finack ~seq:0 ~len:0 ~msg_end:None); Closed ]
        | Finack ->
            if t.fin_sent then begin
              t.closed <- true;
              [ Closed ]
            end
            else [])
