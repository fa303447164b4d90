(* Chrome trace-event ("Trace Event Format") JSON emitter, loadable by
   ui.perfetto.dev and chrome://tracing.

   Track model:
   - each guest VM is a process ([pid = vm + 1], named "vm<N>"), each of
     its replicas a thread ([tid = replica + 1], named "r<N>");
   - the edge nodes share the synthetic "net" process (ingress / egress
     threads); fault windows and spans get their own processes, so they
     never interleave with guest tracks;
   - profile timers render as counter tracks under the "profile" process.

   Protocol steps (proposal, median, delivery, ingress stamp, egress
   release) are thin duration events so flow arrows have slices to bind
   to; everything else is an instant. Lineage becomes flow arrows: one
   s→f edge per causal hop (ingress→proposal, proposal→median,
   median→delivery), ids assigned in emission order, so a run's export is
   a pure function of its trace. *)

let vm_pid vm = vm + 1
let net_pid = 9000
let fault_pid = 9001
let span_pid = 9002
let profile_pid = 9990
let ingress_tid = 1
let egress_tid = 2

let add_ts buf ns =
  (* Microseconds with nanosecond precision, as a decimal literal. *)
  Buffer.add_string buf
    (Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000))

type emitter = { buf : Buffer.t; mutable first : bool }

let str s buf = Json.escape buf s
let int n buf = Buffer.add_string buf (string_of_int n)
let ts ns buf = add_ts buf ns
let raw s buf = Buffer.add_string buf s

let args fields buf =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, emit_v) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.escape buf k;
      Buffer.add_char buf ':';
      emit_v buf)
    fields;
  Buffer.add_char buf '}'

let event em fields =
  if em.first then em.first <- false else Buffer.add_char em.buf ',';
  args fields em.buf

let metadata em ~name ~pid ?tid ~value () =
  let tid_field = match tid with None -> [] | Some t -> [ ("tid", int t) ] in
  event em
    ([ ("name", str name); ("ph", str "M"); ("pid", int pid) ]
    @ tid_field
    @ [ ("args", args [ ("name", str value) ]) ])

(* Thin slice a flow arrow can bind to. *)
let slice em ~name ~at ~pid ~tid a =
  event em
    [
      ("name", str name);
      ("ph", str "X");
      ("ts", ts at);
      ("dur", raw "1");
      ("pid", int pid);
      ("tid", int tid);
      ("args", args a);
    ]

let instant em ~name ~at ~pid ~tid a =
  event em
    [
      ("name", str name);
      ("ph", str "i");
      ("ts", ts at);
      ("pid", int pid);
      ("tid", int tid);
      ("s", str "t");
      ("args", args a);
    ]

(* One lineage hop: a flow start bound to the source slice and a flow end
   bound to the destination slice, under a per-edge id. *)
let flow_edge em ~id ~src:(s_at, s_pid, s_tid) ~dst:(d_at, d_pid, d_tid) =
  event em
    [
      ("name", str "pkt");
      ("cat", str "lineage");
      ("ph", str "s");
      ("ts", ts s_at);
      ("pid", int s_pid);
      ("tid", int s_tid);
      ("id", int id);
    ];
  event em
    [
      ("name", str "pkt");
      ("cat", str "lineage");
      ("ph", str "f");
      ("bp", str "e");
      ("ts", ts d_at);
      ("pid", int d_pid);
      ("tid", int d_tid);
      ("id", int id);
    ]

module Key = struct
  type t = int * int * int (* vm, ingress_seq, replica *)
end

let to_json ?meta ?profile entries =
  let em = { buf = Buffer.create 4096; first = true } in
  Buffer.add_string em.buf "{\"traceEvents\":[";
  (* First pass: the causal anchors flow arrows attach to, and the tracks
     that need naming. *)
  let own_proposal : (Key.t, int) Hashtbl.t = Hashtbl.create 256 in
  let adoption_at : (Key.t, int) Hashtbl.t = Hashtbl.create 256 in
  let ingress_at : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let vm_tracks : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let used_net = ref false and used_fault = ref false in
  let used_span = ref false in
  let remember tbl k at = if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k at in
  List.iter
    (fun (e : Trace.entry) ->
      let at = e.Trace.at_ns in
      (match e.Trace.event with
      | Event.Packet_proposed { vm; observer; proposer; ingress_seq; _ } ->
          if observer = proposer then
            remember own_proposal (vm, ingress_seq, proposer) at
      | Event.Median_adopted { vm; replica; ingress_seq; _ } ->
          remember adoption_at (vm, ingress_seq, replica) at
      | Event.Ingress_replicated { vm; ingress_seq; _ } ->
          remember ingress_at (vm, ingress_seq) at
      | _ -> ());
      (match (Event.vm_of e.Trace.event, Event.replica_of e.Trace.event) with
      | Some vm, Some r -> remember vm_tracks (vm, r) ()
      | Some vm, None -> remember vm_tracks (vm, -1) ()
      | None, _ -> ());
      match e.Trace.event with
      | Event.Ingress_replicated _ | Event.Egress_released _ -> used_net := true
      | Event.Fault_injected _ | Event.Fault_cleared _ -> used_fault := true
      | Event.Span_begin _ | Event.Span_end _ -> used_span := true
      | _ -> ())
    entries;
  (* Track-naming metadata, in sorted track order. *)
  let tracks =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) vm_tracks [])
  in
  let named_vms = ref [] in
  List.iter
    (fun (vm, r) ->
      if not (List.mem vm !named_vms) then begin
        named_vms := vm :: !named_vms;
        metadata em ~name:"process_name" ~pid:(vm_pid vm)
          ~value:(Printf.sprintf "vm%d" vm) ()
      end;
      if r >= 0 then
        metadata em ~name:"thread_name" ~pid:(vm_pid vm) ~tid:(r + 1)
          ~value:(Printf.sprintf "r%d" r) ())
    tracks;
  if !used_net then begin
    metadata em ~name:"process_name" ~pid:net_pid ~value:"net" ();
    metadata em ~name:"thread_name" ~pid:net_pid ~tid:ingress_tid
      ~value:"ingress" ();
    metadata em ~name:"thread_name" ~pid:net_pid ~tid:egress_tid ~value:"egress"
      ()
  end;
  if !used_fault then
    metadata em ~name:"process_name" ~pid:fault_pid ~value:"faults" ();
  if !used_span then
    metadata em ~name:"process_name" ~pid:span_pid ~value:"spans" ();
  (* Second pass: the events themselves, in emission order, with flow
     edges emitted at each hop's destination (both endpoints known). *)
  let next_flow = ref 0 in
  let edge ~src ~dst =
    let id = !next_flow in
    incr next_flow;
    flow_edge em ~id ~src ~dst
  in
  let last_ts = ref 0 in
  List.iter
    (fun (e : Trace.entry) ->
      let at = e.Trace.at_ns in
      if at > !last_ts then last_ts := at;
      match e.Trace.event with
      | Event.Packet_proposed { vm; observer; proposer; ingress_seq; virt_ns }
        ->
          let pid = vm_pid vm and tid = observer + 1 in
          slice em ~name:"proposal" ~at ~pid ~tid
            [
              ("proposer", int proposer);
              ("ingress_seq", int ingress_seq);
              ("virt_ns", int virt_ns);
            ];
          if observer = proposer then
            Option.iter
              (fun t0 ->
                edge
                  ~src:(t0, net_pid, ingress_tid)
                  ~dst:(at, pid, tid))
              (Hashtbl.find_opt ingress_at (vm, ingress_seq))
      | Event.Median_adopted { vm; replica; ingress_seq; virt_ns; proposals }
        ->
          let pid = vm_pid vm and tid = replica + 1 in
          slice em ~name:"median" ~at ~pid ~tid
            [
              ("ingress_seq", int ingress_seq);
              ("virt_ns", int virt_ns);
              ("voters", int (List.length proposals));
            ];
          List.iter
            (fun (proposer, _) ->
              Option.iter
                (fun t0 ->
                  edge
                    ~src:(t0, vm_pid vm, proposer + 1)
                    ~dst:(at, pid, tid))
                (Hashtbl.find_opt own_proposal (vm, ingress_seq, proposer)))
            (List.sort compare proposals)
      | Event.Packet_delivered { vm; replica; seq; virt_ns } ->
          let pid = vm_pid vm and tid = replica + 1 in
          slice em ~name:"deliver" ~at ~pid ~tid
            [ ("ingress_seq", int seq); ("virt_ns", int virt_ns) ];
          Option.iter
            (fun t0 -> edge ~src:(t0, pid, tid) ~dst:(at, pid, tid))
            (Hashtbl.find_opt adoption_at (vm, seq, replica))
      | Event.Ingress_replicated { vm; ingress_seq; copies; size } ->
          slice em ~name:"ingress-rep" ~at ~pid:net_pid ~tid:ingress_tid
            [
              ("vm", int vm);
              ("ingress_seq", int ingress_seq);
              ("copies", int copies);
              ("size", int size);
            ]
      | Event.Egress_released { vm; seq; rank; copies } ->
          slice em ~name:"egress-release" ~at ~pid:net_pid ~tid:egress_tid
            [
              ("vm", int vm);
              ("seq", int seq);
              ("rank", int rank);
              ("copies", int copies);
            ]
      | Event.Divergence { vm; replica; kind } ->
          instant em ~name:"divergence" ~at ~pid:(vm_pid vm) ~tid:(replica + 1)
            [
              ( "kind",
                str
                  (match kind with
                  | Event.Late_median -> "late-median"
                  | Event.Delta_d_violation -> "delta-d-violation") );
            ]
      | Event.Vm_exit { vm; replica; machine; virt_ns; instr } ->
          instant em ~name:"vm-exit" ~at ~pid:(vm_pid vm) ~tid:(replica + 1)
            [
              ("machine", int machine);
              ("virt_ns", int virt_ns);
              ("instr", int instr);
            ]
      | Event.Disk_irq { vm; replica; tag; virt_ns } ->
          instant em ~name:"disk-irq" ~at ~pid:(vm_pid vm) ~tid:(replica + 1)
            [ ("tag", int tag); ("virt_ns", int virt_ns) ]
      | Event.Dma_irq { vm; replica; tag; virt_ns } ->
          instant em ~name:"dma-irq" ~at ~pid:(vm_pid vm) ~tid:(replica + 1)
            [ ("tag", int tag); ("virt_ns", int virt_ns) ]
      | Event.Fault_injected { fault; target; span_ns } ->
          instant em ~name:"fault-inject" ~at ~pid:fault_pid ~tid:1
            [ ("fault", str fault); ("target", str target); ("span_ns", int span_ns) ]
      | Event.Fault_cleared { fault; target } ->
          instant em ~name:"fault-clear" ~at ~pid:fault_pid ~tid:1
            [ ("fault", str fault); ("target", str target) ]
      | Event.Fault_replica_crash { vm; replica } ->
          instant em ~name:"crash" ~at ~pid:(vm_pid vm) ~tid:(replica + 1) []
      | Event.Fault_replica_restart { vm; replica } ->
          instant em ~name:"restart" ~at ~pid:(vm_pid vm) ~tid:(replica + 1) []
      | Event.Degrade_suspected { vm; replica; attempt } ->
          instant em ~name:"suspected" ~at ~pid:(vm_pid vm) ~tid:(replica + 1)
            [ ("attempt", int attempt) ]
      | Event.Degrade_ejected { vm; replica; quorum } ->
          instant em ~name:"ejected" ~at ~pid:(vm_pid vm) ~tid:(replica + 1)
            [ ("quorum", int quorum) ]
      | Event.Degrade_reintegrated { vm; replica; quorum } ->
          instant em ~name:"reintegrated" ~at ~pid:(vm_pid vm) ~tid:(replica + 1)
            [ ("quorum", int quorum) ]
      | Event.Span_begin { name } ->
          event em
            [
              ("name", str name);
              ("ph", str "B");
              ("ts", ts at);
              ("pid", int span_pid);
              ("tid", int 1);
            ]
      | Event.Span_end { name; elapsed_ns } ->
          event em
            [
              ("name", str name);
              ("ph", str "E");
              ("ts", ts at);
              ("pid", int span_pid);
              ("tid", int 1);
              ("args", args [ ("elapsed_ns", int elapsed_ns) ]);
            ])
    entries;
  (* Profile counter tracks: one cumulative sample per timer at the end of
     the trace. Wall-clock data — keep out of byte-compared exports. *)
  (match profile with
  | None -> ()
  | Some p ->
      let timers = Profile.to_list p in
      if timers <> [] then begin
        metadata em ~name:"process_name" ~pid:profile_pid ~value:"profile" ();
        List.iter
          (fun (name, total_ns, calls) ->
            event em
              [
                ("name", str name);
                ("ph", str "C");
                ("ts", ts !last_ts);
                ("pid", int profile_pid);
                ( "args",
                  args [ ("total_ns", int total_ns); ("calls", int calls) ] );
              ])
          timers
      end);
  Buffer.add_string em.buf "],\"displayTimeUnit\":\"ms\"";
  (match meta with
  | None -> ()
  | Some m ->
      Buffer.add_string em.buf ",\"otherData\":";
      Buffer.add_string em.buf (Json.to_string (Export.meta_json m)));
  Buffer.add_string em.buf "}";
  Buffer.contents em.buf
