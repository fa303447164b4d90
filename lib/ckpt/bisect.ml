module Cloud = Stopwatch.Cloud
module Snapshot = Sw_obs.Snapshot
module Export = Sw_obs.Export
module Json = Sw_obs.Json
module Trace = Sw_obs.Trace
module Event = Sw_obs.Event
module Lineage = Sw_obs.Lineage

let observational cloud = Snapshot.without_sim (Cloud.metrics_snapshot cloud)

let fingerprint cloud =
  Digest.to_hex (Digest.string (Export.to_json_string (observational cloud)))

type metric_diff = string * string option * string option

type divergence = {
  index : int;
  sim_ns : Sw_sim.Time.t;
  last_common : int option;
  metric_diff : metric_diff list;
  unrestored : string option;
  first_event :
    (int * Sw_obs.Trace.entry option * Sw_obs.Trace.entry option) option;
  chain : Sw_obs.Lineage.chain option;
}

type error =
  | Empty_timeline of string
  | No_common_index
  | Grid_mismatch of { index : int; a_ns : Sw_sim.Time.t; b_ns : Sw_sim.Time.t }
  | No_divergence of { compared : int }

let pp_error fmt = function
  | Empty_timeline dir -> Format.fprintf fmt "no readable image in %s" dir
  | No_common_index ->
      Format.fprintf fmt "the two timelines share no checkpoint index"
  | Grid_mismatch { index; a_ns; b_ns } ->
      Format.fprintf fmt
        "checkpoint %d sits at %dns on one side, %dns on the other: \
         different checkpoint intervals"
        index a_ns b_ns
  | No_divergence { compared } ->
      Format.fprintf fmt "all %d shared checkpoints agree" compared

let ( let* ) = Result.bind

(* The restored cloud, or why [path] does not restore in this binary. *)
let load_cloud path =
  match Image.read ~path with
  | Error e -> Error (Format.asprintf "%s: %a" path Image.pp_error e)
  | Ok (_meta, payload) -> (
      match Cloud.restore payload with
      | Ok (cloud, _extra) -> Ok cloud
      | Error e ->
          Error
            (Format.asprintf "cannot restore %s: %a" path
               Cloud.pp_restore_error e))

let render_data = function
  | Snapshot.Counter n -> string_of_int n
  | Snapshot.Sum x | Snapshot.Gauge x -> Json.to_string (Json.Float x)
  | Snapshot.Histogram h ->
      Printf.sprintf "histogram(count=%d,total=%dns)" h.Snapshot.count
        h.Snapshot.total

(* Name-merge two sorted metric lists, keeping only disagreeing names. *)
let diff_snapshots sa sb =
  let rec walk acc la lb =
    match (la, lb) with
    | [], [] -> List.rev acc
    | (n, d) :: la, [] -> walk ((n, Some (render_data d), None) :: acc) la []
    | [], (n, d) :: lb -> walk ((n, None, Some (render_data d)) :: acc) [] lb
    | (na, da) :: la', (nb, db) :: lb' ->
        let c = String.compare na nb in
        if c < 0 then walk ((na, Some (render_data da), None) :: acc) la' lb
        else if c > 0 then
          walk ((nb, None, Some (render_data db)) :: acc) la lb'
        else
          let ra = render_data da and rb = render_data db in
          let acc = if ra = rb then acc else (na, Some ra, Some rb) :: acc in
          walk acc la' lb'
  in
  walk [] (Snapshot.to_list sa) (Snapshot.to_list sb)

(* Replay one side's divergent window under a structured trace. [Ok None]
   when the restored cloud is sharded (traces are single-shard-only). *)
let replay_trace path ~until =
  let* cloud = load_cloud path in
  if Cloud.shard_count cloud > 1 then Ok None
  else begin
    let tr = Trace.create ~capacity:(1 lsl 18) () in
    Cloud.attach_trace cloud tr;
    Cloud.run cloud ~until;
    Ok (Some (Trace.entries tr))
  end

let first_trace_mismatch ea eb =
  let rec walk i ea eb =
    match (ea, eb) with
    | [], [] -> None
    | a :: _, [] -> Some (i, Some a, None)
    | [], b :: _ -> Some (i, None, Some b)
    | a :: ea', b :: eb' ->
        if a = b then walk (i + 1) ea' eb' else Some (i, Some a, Some b)
  in
  walk 0 ea eb

(* The (vm, ingress_seq) lineage key an event belongs to, when it names
   one packet's delivery pipeline. *)
let chain_key (e : Trace.entry) =
  match e.Trace.event with
  | Event.Ingress_replicated { vm; ingress_seq; _ }
  | Event.Packet_proposed { vm; ingress_seq; _ }
  | Event.Median_adopted { vm; ingress_seq; _ } ->
      Some (vm, ingress_seq)
  | Event.Packet_delivered { vm; seq; _ } -> Some (vm, seq)
  | _ -> None

let chain_of entries entry =
  match Option.bind entry chain_key with
  | None -> None
  | Some (vm, seq) ->
      List.find_opt
        (fun (c : Lineage.chain) ->
          c.Lineage.vm = vm && c.Lineage.ingress_seq = seq)
        (Lineage.chains (Lineage.of_entries entries))

let timeline dir =
  let entries, _skipped = Store.list dir in
  if entries = [] then Error (Empty_timeline dir)
  else begin
    let tbl = Hashtbl.create (List.length entries) in
    List.iter (fun (e : Store.entry) -> Hashtbl.replace tbl e.index e) entries;
    Ok tbl
  end

let first_divergence ~a ~b =
  let* ta = timeline a in
  let* tb = timeline b in
  let common =
    Hashtbl.fold
      (fun index (ea : Store.entry) acc ->
        match Hashtbl.find_opt tb index with
        | Some eb -> (index, ea, eb) :: acc
        | None -> acc)
      ta []
    |> List.sort (fun (i, _, _) (j, _, _) -> compare i j)
  in
  let* common = if common = [] then Error No_common_index else Ok common in
  let grid =
    List.find_opt
      (fun (_, (ea : Store.entry), (eb : Store.entry)) ->
        not (Int64.equal ea.meta.Image.sim_ns eb.meta.Image.sim_ns))
      common
  in
  let* () =
    match grid with
    | Some (index, ea, eb) ->
        Error
          (Grid_mismatch
             {
               index;
               a_ns = Int64.to_int ea.meta.Image.sim_ns;
               b_ns = Int64.to_int eb.meta.Image.sim_ns;
             })
    | None -> Ok ()
  in
  let arr = Array.of_list common in
  let differs i =
    let _, (ea : Store.entry), (eb : Store.entry) = arr.(i) in
    ea.meta.Image.fingerprint <> eb.meta.Image.fingerprint
  in
  let n = Array.length arr in
  if not (differs (n - 1)) then Error (No_divergence { compared = n })
  else begin
    (* Persistent divergence makes [differs] monotone over the grid, so
       the first true position binary-searches. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if differs mid then hi := mid else lo := mid + 1
    done;
    let index, (ea : Store.entry), (eb : Store.entry) = arr.(!lo) in
    let last_common =
      if !lo = 0 then None
      else
        let i, _, _ = arr.(!lo - 1) in
        Some i
    in
    (* The index above came from image metadata alone. Restoring is
       best-effort from here on: an image this binary cannot restore (one
       another build wrote, say) degrades the answer to the index, with the
       reason; a missing ancestor or a sharded side degrades it to the
       metric diff. Neither fails the bisection. *)
    let metric_diff, unrestored =
      match load_cloud ea.path with
      | Error reason -> ([], Some reason)
      | Ok cloud_a -> (
          match load_cloud eb.path with
          | Error reason -> ([], Some reason)
          | Ok cloud_b ->
              (diff_snapshots (observational cloud_a) (observational cloud_b), None))
    in
    let first_event, chain =
      match last_common with
      | None -> (None, None)
      | Some lc ->
          let until = Int64.to_int ea.meta.Image.sim_ns in
          let replay dir =
            match replay_trace (Store.path dir ~index:lc) ~until with
            | Ok v -> v
            | Error _ -> None
          in
          ( match (replay a, replay b) with
          | Some entries_a, Some entries_b -> (
              match first_trace_mismatch entries_a entries_b with
              | None -> (None, None)
              | Some (pos, e_a, e_b) ->
                  let key_entry = if e_a <> None then e_a else e_b in
                  (Some (pos, e_a, e_b), chain_of entries_a key_entry))
          | _ -> (None, None) )
    in
    Ok
      {
        index;
        sim_ns = Int64.to_int ea.meta.Image.sim_ns;
        last_common;
        metric_diff;
        unrestored;
        first_event;
        chain;
      }
  end

let pp_side fmt = function
  | Some v -> Format.pp_print_string fmt v
  | None -> Format.pp_print_string fmt "(absent)"

let pp_entry_opt fmt = function
  | Some e -> Trace.pp_entry fmt e
  | None -> Format.pp_print_string fmt "(trace ended)"

let pp_divergence fmt d =
  Format.fprintf fmt "first divergent checkpoint: #%d at %dns" d.index
    d.sim_ns;
  (match d.last_common with
  | Some i -> Format.fprintf fmt " (last agreement: #%d)" i
  | None -> Format.fprintf fmt " (no prior agreement)");
  Format.pp_print_newline fmt ();
  Option.iter
    (Format.fprintf fmt "  index only, from image metadata: %s@.")
    d.unrestored;
  let shown = List.filteri (fun i _ -> i < 20) d.metric_diff in
  List.iter
    (fun (name, va, vb) ->
      Format.fprintf fmt "  %s: A=%a B=%a@." name pp_side va pp_side vb)
    shown;
  let rest = List.length d.metric_diff - List.length shown in
  if rest > 0 then Format.fprintf fmt "  ... and %d more metrics@." rest;
  (match d.first_event with
  | None ->
      Format.fprintf fmt
        "  (window not replayed: no common ancestor, a sharded side or an \
         image that does not restore)@."
  | Some (pos, ea, eb) ->
      Format.fprintf fmt "  first divergent event (position %d):@." pos;
      Format.fprintf fmt "    A: %a@." pp_entry_opt ea;
      Format.fprintf fmt "    B: %a@." pp_entry_opt eb);
  match d.chain with
  | None -> ()
  | Some c ->
      Format.fprintf fmt
        "  lineage of vm %d seq %d: %d proposals, %d adoptions, %d \
         deliveries@."
        c.Lineage.vm c.Lineage.ingress_seq
        (List.length c.Lineage.proposals)
        (List.length c.Lineage.adoptions)
        (List.length c.Lineage.deliveries)
