module App = Sw_vm.App
module Msg = Sw_net.Msg
module Time = Sw_sim.Time
module Host = Stopwatch.Host

type op = Msg.nfs_op = Setattr | Lookup | Write | Getattr | Read | Create

let paper_mix =
  [
    (Setattr, 0.1137);
    (Lookup, 0.2407);
    (Write, 0.1192);
    (Getattr, 0.0793);
    (Read, 0.3234);
    (Create, 0.1237);
  ]

let transfer_bytes = 8192

let call_bytes = function
  | Write -> transfer_bytes + 200
  | _ -> 160

let reply_bytes = function
  | Read -> transfer_bytes + 200
  | _ -> 160

let compute_of_op = function Lookup | Getattr -> 80_000 | _ -> 30_000

(* Deterministic per-xid hash in [0, 1) — identical across replicas. *)
let xid_hash xid = float_of_int (xid * 2654435761 land 0xFFFFF) /. 1048576.

(* Buffer-cache hit rate for reads; misses go to the platter. *)
let read_cache_hit_rate = 0.7

type pending_op = { key : Tcp_guest.conn_key; xid : int; op : op }

(* The server ACKs every segment: RPC calls are latency-critical and an ACK
   unblocks the client's Nagle-held batch immediately. *)
let server_tcp_config = { Tcp.default_config with Tcp.ack_every = 1 }

let server () =
  let tcpd = Tcp_guest.create ~config:server_tcp_config () in
  let pending : (int, pending_op) Hashtbl.t = Hashtbl.create 16 in
  let next_tag = ref 0 in
  let reply p =
    Tcp_guest.send tcpd p.key
      ~payload:(Msg.Nfs_reply { xid = p.xid; op = p.op })
      ~bytes:(reply_bytes p.op)
  in
  (* Server model mirrors a real NFS server's I/O behaviour: reads hit the
     buffer cache most of the time and block on disk otherwise; writes,
     creates and setattrs persist via the journal (sequential, write-behind)
     and reply without waiting for the platter. *)
  let handle_call key xid op =
    let p = { key; xid; op } in
    let compute = App.Compute (compute_of_op op) in
    match op with
    | Read when xid_hash xid >= read_cache_hit_rate ->
        let tag = !next_tag in
        incr next_tag;
        Hashtbl.replace pending tag p;
        [ compute; App.Disk_read { bytes = transfer_bytes; sequential = false; tag } ]
    | Read -> compute :: reply p
    | Write | Create | Setattr ->
        let tag = !next_tag in
        incr next_tag;
        let bytes = if op = Write then transfer_bytes else 512 in
        (compute :: App.Disk_write { bytes; sequential = true; tag } :: reply p)
    | Lookup | Getattr -> compute :: reply p
  in
  let handle_conn_event = function
    | Tcp_guest.Msg { key; payload = Msg.Nfs_call { xid; op }; _ } ->
        handle_call key xid op
    | Tcp_guest.Msg _ | Tcp_guest.Accepted _ | Tcp_guest.Conn_closed _ -> []
  in
  {
    App.handle =
      (fun ~virt_now:_ event ->
        match Tcp_guest.handle tcpd event with
        | Some (conn_events, actions) ->
            actions @ List.concat_map handle_conn_event conn_events
        | None -> (
            match event with
            | App.Disk_done { tag } -> (
                match Hashtbl.find_opt pending tag with
                | Some p ->
                    Hashtbl.remove pending tag;
                    reply p
                | None -> [])
            | _ -> []));
  }

let client_tcp_config = { Tcp.default_config with Tcp.nagle = true }

type client_stats = {
  issued : int;
  completed : int;
  latencies_ms : float array;
}

let pick_op rng =
  let u = Sw_sim.Prng.float rng in
  let rec walk acc = function
    | [] -> Read
    | (op, w) :: rest -> if u < acc +. w then op else walk (acc +. w) rest
  in
  walk 0. paper_mix

let run_client t ~dst ~rate_per_s ~procs ~ops ~seed =
  if rate_per_s <= 0. then invalid_arg "Nfs.run_client: rate must be positive";
  if procs < 1 then invalid_arg "Nfs.run_client: need >= 1 process";
  let host = Tcp_host.host t in
  let rng = Sw_sim.Prng.create seed in
  let issued = ref 0 and completed = ref 0 in
  let latencies = Sw_sim.Samples.create () in
  let starts : (int, Time.t) Hashtbl.t = Hashtbl.create 64 in
  let conns =
    Array.init procs (fun _ ->
        Tcp_host.connect t ~dst
          ~on_msg:(fun ~payload ~bytes:_ ->
            match payload with
            | Msg.Nfs_reply { xid; _ } -> (
                match Hashtbl.find_opt starts xid with
                | Some t0 ->
                    Hashtbl.remove starts xid;
                    incr completed;
                    Sw_sim.Samples.add latencies
                      (Time.to_float_ms (Time.sub (Host.now host) t0))
                | None -> ())
            | _ -> ())
          ())
  in
  let gap = Time.of_float_s (1. /. rate_per_s) in
  let rec issue n =
    if n < ops then
      Host.after host gap (fun () ->
          let xid = n in
          let op = pick_op rng in
          let conn = conns.(n mod procs) in
          Hashtbl.replace starts xid (Host.now host);
          incr issued;
          Tcp_host.send conn ~payload:(Msg.Nfs_call { xid; op }) ~bytes:(call_bytes op);
          issue (n + 1))
  in
  issue 0;
  fun () ->
    {
      issued = !issued;
      completed = !completed;
      latencies_ms = Sw_sim.Samples.to_array latencies;
    }
