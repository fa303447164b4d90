(** Application messages and the TCP segment format, as plain data.

    Every protocol in the repository is listed here, so the packet payload
    ({!Packet.payload}) is a closed type: the compiler sees every case a
    handler can meet, and a checkpointed packet survives [Marshal]
    unchanged. Applications ([Sw_apps], [Sw_workload]) own the behaviour;
    this module owns only the wire vocabulary. *)

type nfs_op = Setattr | Lookup | Write | Getattr | Read | Create

type t =
  | Http_get of { file : int; size : int }
  | Http_response of { file : int }
  | Nfs_call of { xid : int; op : nfs_op }
  | Nfs_reply of { xid : int; op : nfs_op }
  | Udp_request of { file : int; size : int }
  | Udp_data of { file : int; offset : int; len : int; last : bool }
  | Udp_nak of { file : int; from_offset : int }
  | Probe_ping of int
  | Probe_echo of int
  | Stream_data of int
  | Job_done of { name : string }  (** PARSEC completion report. *)
  | Wl_get of {
      cls : int;  (** Request-class index (client-side mix position). *)
      key : int;
      seq : int;  (** Client-chosen correlation id, echoed back. *)
      resp_bytes : int;  (** Response body size. *)
      cached : bool;  (** Whether this class goes through the cache. *)
    }
  | Wl_resp of { seq : int; tier : int }
      (** [tier >= 0]: served from that cache tier; [-1]: origin (miss or
          uncached class). *)

type kind = Syn | Synack | Data | Ack | Fin | Finack

type seg = {
  conn : int;
  kind : kind;
  seq : int;  (** First data byte (Data). *)
  len : int;
  ack : int;  (** Cumulative ACK, piggybacked on everything after Syn. *)
  msg_end : t option;  (** Message completing at [seq + len]. *)
}
