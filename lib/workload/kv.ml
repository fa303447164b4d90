module App = Sw_vm.App
module Time = Sw_sim.Time
module Tcp_guest = Sw_apps.Tcp_guest
module Msg = Sw_net.Msg
module Int_tbl = Sw_obs.Int_tbl

type config = {
  cache : Cache.config;
  compute_branches : int;
  header_bytes : int;
  tcp : Sw_apps.Tcp.config option;
}

let default_config =
  {
    cache =
      {
        Cache.tiers =
          [
            { Cache.capacity = 64; hit_cost = Time.us 50 };
            { Cache.capacity = 512; hit_cost = Time.us 400 };
          ];
        origin_cost = Time.ms 2;
      };
    compute_branches = 20_000;
    header_bytes = 64;
    tcp = None;
  }

(* A request's position in its service pipeline, keyed by its timer/disk
   tag. *)
type phase =
  | Hit_wait of int  (** Timer pending for a tier hit; payload = tier. *)
  | Origin_wait  (** Timer pending for the origin round-trip. *)
  | Reading  (** Disk read of the response body in flight. *)

type pending = {
  conn : Tcp_guest.conn_key;
  seq : int;
  resp_bytes : int;
  mutable phase : phase;
}

type state = {
  tcp : Tcp_guest.t;
  cache : Cache.t;
  pending : pending Int_tbl.t;
  mutable next_tag : int;
  config : config;
}

(* Distinct classes must not share cache lines even when key ranges
   overlap. *)
let cache_key ~cls ~key = (cls lsl 40) lxor key

let server (config : config) () =
  Cache.validate_config config.cache;
  let st =
    {
      tcp = Tcp_guest.create ?config:config.tcp ();
      cache = Cache.create config.cache;
      pending = Int_tbl.create 64;
      next_tag = 0;
      config;
    }
  in
  let fresh_tag p =
    let tag = st.next_tag in
    (* Stay below [Tcp_guest.tag_base]; at one slot per in-flight request a
       collision would need ~10^6 simultaneous requests. *)
    st.next_tag <- (tag + 1) mod Tcp_guest.tag_base;
    Int_tbl.replace st.pending tag p;
    tag
  in
  let respond tag p ~tier =
    Int_tbl.remove st.pending tag;
    Tcp_guest.send st.tcp p.conn
      ~payload:(Msg.Wl_resp { seq = p.seq; tier })
      ~bytes:(p.resp_bytes + st.config.header_bytes)
  in
  let start conn (cls, key, seq, resp_bytes, cached) =
    let p = { conn; seq; resp_bytes; phase = Reading } in
    let parse = App.Compute st.config.compute_branches in
    if not cached then begin
      let tag = fresh_tag p in
      [ parse; App.Disk_read { bytes = resp_bytes; sequential = true; tag } ]
    end
    else
      match Cache.access st.cache (cache_key ~cls ~key) with
      | Cache.Hit { tier; cost } ->
          p.phase <- Hit_wait tier;
          let tag = fresh_tag p in
          [ parse; App.Set_timer { after = cost; tag } ]
      | Cache.Miss { cost } ->
          p.phase <- Origin_wait;
          let tag = fresh_tag p in
          [ parse; App.Set_timer { after = cost; tag } ]
  in
  let handle_conn_event = function
    | Tcp_guest.Msg
        { key; payload = Msg.Wl_get { cls; key = k; seq; resp_bytes; cached }; _ } ->
        start key (cls, k, seq, resp_bytes, cached)
    | Tcp_guest.Msg _ | Tcp_guest.Accepted _ | Tcp_guest.Conn_closed _ -> []
  in
  let own_event = function
    | App.Timer { tag } -> (
        match Int_tbl.find_opt st.pending tag with
        | None -> []
        | Some p -> (
            match p.phase with
            | Hit_wait tier -> respond tag p ~tier
            | Origin_wait ->
                p.phase <- Reading;
                [
                  App.Disk_read
                    { bytes = p.resp_bytes; sequential = false; tag };
                ]
            | Reading -> []))
    | App.Disk_done { tag } -> (
        match Int_tbl.find_opt st.pending tag with
        | Some ({ phase = Reading; _ } as p) -> respond tag p ~tier:(-1)
        | Some _ | None -> [])
    | _ -> []
  in
  {
    App.handle =
      (fun ~virt_now:_ event ->
        match Tcp_guest.handle st.tcp event with
        | Some (conn_events, actions) ->
            actions @ List.concat_map handle_conn_event conn_events
        | None -> own_event event);
  }
