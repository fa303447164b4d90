type proposal = {
  observer : int;
  proposer : int;
  at_ns : int;
  virt_ns : int;
}

type adoption = {
  replica : int;
  at_ns : int;
  virt_ns : int;
  proposals : (int * int) list;
}

type delivery = { replica : int; at_ns : int; virt_ns : int }

type chain = {
  vm : int;
  ingress_seq : int;
  ingress_at_ns : int option;
  proposals : proposal list;
  adoptions : adoption list;
  deliveries : delivery list;
}

type orphan_kind = Unadopted_proposal | Unmatched_delivery

type orphan = {
  o_vm : int;
  o_ingress_seq : int;
  o_replica : int;
  kind : orphan_kind;
}

let orphan_kind_label = function
  | Unadopted_proposal -> "unadopted-proposal"
  | Unmatched_delivery -> "unmatched-delivery"

type hist = {
  count : int;
  total_ns : int;
  min_ns : int;  (** Meaningless when [count = 0]. *)
  max_ns : int;  (** Meaningless when [count = 0]. *)
  buckets : (int * int) list;
}

let empty_hist =
  {
    count = 0;
    total_ns = 0;
    min_ns = max_int;
    max_ns = min_int;
    buckets = [];
  }

let hist_of_lags lags =
  let counts = Array.make Buckets.count 0 in
  let h =
    List.fold_left
      (fun h v ->
        let i = Buckets.index v in
        counts.(i) <- counts.(i) + 1;
        {
          h with
          count = h.count + 1;
          total_ns = h.total_ns + v;
          min_ns = Int.min v h.min_ns;
          max_ns = Int.max v h.max_ns;
        })
      empty_hist lags
  in
  let buckets = ref [] in
  for i = Buckets.count - 1 downto 0 do
    if counts.(i) > 0 then buckets := (Buckets.bound i, counts.(i)) :: !buckets
  done;
  { h with buckets = !buckets }

let hist_mean_ns h =
  if h.count = 0 then 0. else float_of_int h.total_ns /. float_of_int h.count

type mechanism =
  | Median_adoption
  | Delivery_gap
  | Egress_release
  | Ingress_latency

let mechanism_label = function
  | Median_adoption -> "median-adoption"
  | Delivery_gap -> "delivery-gap"
  | Egress_release -> "egress-release"
  | Ingress_latency -> "ingress-latency"

let ms_of_ns v = float_of_int v /. 1e6

(* --- Reconstruction ----------------------------------------------------- *)

type builder = {
  b_vm : int;
  b_seq : int;
  mutable b_ingress : int option;
  mutable b_proposals : proposal list;  (** reversed *)
  mutable b_adoptions : adoption list;  (** reversed *)
  mutable b_deliveries : delivery list;  (** reversed *)
}

type t = {
  chains : chain list;
  orphans : orphan list;
  total : int;
  complete : int;
  in_flight : int;
  propose_to_adopt : hist;
  adopt_to_deliver : hist;
  median_credits : (int * float) list;
  skew_series : (int * int) list;
  negative_lags : int;
  dropped : int;
  pa_ms_by_vm : (int * float array) list;
  egress_gap_ms_by_vm : (int * float array) list;
}

let of_entries ?(dropped = 0) entries =
  let builders : (int * int, builder) Hashtbl.t = Hashtbl.create 256 in
  let builder vm seq =
    match Hashtbl.find_opt builders (vm, seq) with
    | Some b -> b
    | None ->
        let b =
          {
            b_vm = vm;
            b_seq = seq;
            b_ingress = None;
            b_proposals = [];
            b_adoptions = [];
            b_deliveries = [];
          }
        in
        Hashtbl.add builders (vm, seq) b;
        b
  in
  (* Per-VM accumulators outside the chain structure: egress release
     instants (which have no ingress_seq) and propose->adopt lags. *)
  let egress_at : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  let pa_vm : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  let vm_push tbl vm v =
    let cell =
      match Hashtbl.find_opt tbl vm with
      | Some c -> c
      | None ->
          let c = ref [] in
          Hashtbl.add tbl vm c;
          c
    in
    cell := v :: !cell
  in
  List.iter
    (fun (e : Trace.entry) ->
      let at_ns = e.Trace.at_ns in
      match e.Trace.event with
      | Event.Ingress_replicated { vm; ingress_seq; _ } ->
          let b = builder vm ingress_seq in
          if b.b_ingress = None then b.b_ingress <- Some at_ns
      | Event.Packet_proposed { vm; observer; proposer; ingress_seq; virt_ns }
        ->
          let b = builder vm ingress_seq in
          b.b_proposals <-
            { observer; proposer; at_ns; virt_ns } :: b.b_proposals
      | Event.Median_adopted { vm; replica; ingress_seq; virt_ns; proposals }
        ->
          let b = builder vm ingress_seq in
          b.b_adoptions <-
            { replica; at_ns; virt_ns; proposals } :: b.b_adoptions
      | Event.Packet_delivered { vm; replica; seq; virt_ns } ->
          let b = builder vm seq in
          b.b_deliveries <- { replica; at_ns; virt_ns } :: b.b_deliveries
      | Event.Egress_released { vm; _ } -> vm_push egress_at vm at_ns
      | _ -> ())
    entries;
  let chains =
    List.sort
      (fun a b -> compare (a.vm, a.ingress_seq) (b.vm, b.ingress_seq))
      (Hashtbl.fold
         (fun _ b acc ->
           {
             vm = b.b_vm;
             ingress_seq = b.b_seq;
             ingress_at_ns = b.b_ingress;
             proposals = List.rev b.b_proposals;
             adoptions = List.rev b.b_adoptions;
             deliveries = List.rev b.b_deliveries;
           }
           :: acc)
         builders [])
  in
  (* Fold every chain once for orphans, lags, credits and skew. *)
  let orphans = ref [] in
  let complete = ref 0 in
  let in_flight = ref 0 in
  let pa_lags = ref [] in
  let ad_lags = ref [] in
  let negative = ref 0 in
  let credits : (int, float ref) Hashtbl.t = Hashtbl.create 8 in
  let skew = ref [] in
  let lag_push acc a b =
    let d = b - a in
    if d < 0 then incr negative else acc := d :: !acc
  in
  List.iter
    (fun c ->
      let replicas_of f l =
        List.sort_uniq compare (List.filter_map f l)
      in
      let observers =
        replicas_of (fun (p : proposal) -> Some p.observer) c.proposals
      in
      let adopters =
        replicas_of (fun (a : adoption) -> Some a.replica) c.adoptions
      in
      let deliverers =
        replicas_of (fun (d : delivery) -> Some d.replica) c.deliveries
      in
      if c.adoptions <> [] && c.deliveries <> [] then incr complete
      else if c.adoptions <> [] && c.deliveries = [] then incr in_flight;
      let orphan replica kind =
        orphans :=
          { o_vm = c.vm; o_ingress_seq = c.ingress_seq; o_replica = replica; kind }
          :: !orphans
      in
      List.iter
        (fun r -> if not (List.mem r adopters) then orphan r Unadopted_proposal)
        observers;
      List.iter
        (fun r ->
          if not (List.mem r adopters) then orphan r Unmatched_delivery)
        deliverers;
      (* propose -> adopt lag, anchored at the replica's own proposal (its
         first observed one when the own proposal fell out of the ring). *)
      List.iter
        (fun (a : adoption) ->
          let anchor =
            match
              List.find_opt
                (fun (p : proposal) ->
                  p.observer = a.replica && p.proposer = a.replica)
                c.proposals
            with
            | Some p -> Some p.at_ns
            | None -> (
                match
                  List.find_opt
                    (fun (p : proposal) -> p.observer = a.replica)
                    c.proposals
                with
                | Some p -> Some p.at_ns
                | None -> None)
          in
          (match anchor with
          | Some t0 ->
              let d = a.at_ns - t0 in
              if d < 0 then incr negative
              else begin
                pa_lags := d :: !pa_lags;
                vm_push pa_vm c.vm d
              end
          | None -> ());
          (* Median-win credit, ties split evenly — the marginalisation view
             of Sec. IX, recomputed from the trace alone. *)
          let winners =
            List.filter (fun (_, v) -> v = a.virt_ns) a.proposals
          in
          let share =
            match winners with
            | [] -> 0.
            | ws -> 1. /. float_of_int (List.length ws)
          in
          List.iter
            (fun (who, _) ->
              let cell =
                match Hashtbl.find_opt credits who with
                | Some c -> c
                | None ->
                    let c = ref 0. in
                    Hashtbl.add credits who c;
                    c
              in
              cell := !cell +. share)
            winners)
        c.adoptions;
      (* adopt -> deliver lag, per replica. *)
      List.iter
        (fun (d : delivery) ->
          match
            List.find_opt (fun (a : adoption) -> a.replica = d.replica) c.adoptions
          with
          | Some a -> lag_push ad_lags a.at_ns d.at_ns
          | None -> ())
        c.deliveries;
      (* One skew point per chain: the spread of the proposal virtual times
         the first adoption saw, stamped with that adoption's instant. *)
      match c.adoptions with
      | ({ proposals = (_, v0) :: rest; at_ns; _ } : adoption) :: _ ->
          let lo, hi =
            List.fold_left
              (fun (lo, hi) (_, v) ->
                (Int.min v lo, Int.max v hi))
              (v0, v0) rest
          in
          skew := (at_ns, hi - lo) :: !skew
      | _ -> ())
    chains;
  let orphans =
    List.sort
      (fun a b ->
        compare
          (a.o_vm, a.o_ingress_seq, a.o_replica, a.kind)
          (b.o_vm, b.o_ingress_seq, b.o_replica, b.kind))
      !orphans
  in
  {
    chains;
    orphans;
    total = List.length chains;
    complete = !complete;
    in_flight = !in_flight;
    propose_to_adopt = hist_of_lags !pa_lags;
    adopt_to_deliver = hist_of_lags !ad_lags;
    median_credits =
      List.sort compare
        (Hashtbl.fold (fun who c acc -> (who, !c) :: acc) credits []);
    skew_series = List.rev !skew;
    negative_lags = !negative;
    dropped;
    pa_ms_by_vm =
      (let acc =
         Hashtbl.fold
           (fun vm cell acc ->
             (vm, Array.of_list (List.rev_map ms_of_ns !cell)) :: acc)
           pa_vm []
       in
       List.sort compare acc);
    egress_gap_ms_by_vm =
      (let gaps l =
         let rec walk acc = function
           | a :: (b :: _ as rest) -> walk (ms_of_ns (b - a) :: acc) rest
           | _ -> List.rev acc
         in
         Array.of_list (walk [] l)
       in
       let acc =
         Hashtbl.fold
           (fun vm cell acc -> (vm, gaps (List.rev !cell)) :: acc)
           egress_at []
       in
       List.sort compare acc);
  }

let of_trace tr = of_entries ~dropped:(Trace.dropped tr) (Trace.entries tr)

let chains t = t.chains
let orphans t = t.orphans
let total t = t.total
let complete t = t.complete
let in_flight t = t.in_flight
let propose_to_adopt t = t.propose_to_adopt
let adopt_to_deliver t = t.adopt_to_deliver
let negative_lags t = t.negative_lags
let dropped t = t.dropped

let mechanism_rank = function
  | Median_adoption -> 0
  | Delivery_gap -> 1
  | Egress_release -> 2
  | Ingress_latency -> 3

let observations t =
  (* Delivery gaps: per VM, successive differences of each chain's first
     delivery virtual time, in ingress order (chains are already sorted by
     (vm, ingress_seq)). This is the inter-delivery series the co-resident
     observer measures, rebuilt from the trace. *)
  let delivery_gaps =
    let by_vm : (int, float list ref) Hashtbl.t = Hashtbl.create 8 in
    let last : (int, int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun c ->
        match c.deliveries with
        | [] -> ()
        | { virt_ns; _ } :: _ ->
            (match Hashtbl.find_opt last c.vm with
            | Some prev ->
                let cell =
                  match Hashtbl.find_opt by_vm c.vm with
                  | Some l -> l
                  | None ->
                      let l = ref [] in
                      Hashtbl.add by_vm c.vm l;
                      l
                in
                cell := ms_of_ns (virt_ns - prev) :: !cell
            | None -> ());
            Hashtbl.replace last c.vm virt_ns)
      t.chains;
    Hashtbl.fold
      (fun vm cell acc -> (vm, Array.of_list (List.rev !cell)) :: acc)
      by_vm []
  in
  (* Ingress latency: per VM, ingress stamp to first delivery (virtual
     delivery instant), one sample per chain that carries both ends. The
     pinger side of the probe knows its own send times, so this series is
     observable by the attack apparatus even though the ingress stamp is
     not guest-visible. *)
  let ingress_latency =
    let by_vm : (int, float list ref) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun c ->
        match (c.ingress_at_ns, c.deliveries) with
        | Some t0, { virt_ns; _ } :: _ ->
            let cell =
              match Hashtbl.find_opt by_vm c.vm with
              | Some l -> l
              | None ->
                  let l = ref [] in
                  Hashtbl.add by_vm c.vm l;
                  l
            in
            cell := ms_of_ns (virt_ns - t0) :: !cell
        | _ -> ())
      t.chains;
    Hashtbl.fold
      (fun vm cell acc -> (vm, Array.of_list (List.rev !cell)) :: acc)
      by_vm []
  in
  let tag m series =
    List.filter_map
      (fun (vm, xs) -> if Array.length xs = 0 then None else Some ((vm, m), xs))
      series
  in
  let all =
    tag Median_adoption t.pa_ms_by_vm
    @ tag Delivery_gap delivery_gaps
    @ tag Egress_release t.egress_gap_ms_by_vm
    @ tag Ingress_latency ingress_latency
  in
  List.sort
    (fun ((va, ma), _) ((vb, mb), _) ->
      compare (va, mechanism_rank ma) (vb, mechanism_rank mb))
    all

let median_wins t =
  let total = List.fold_left (fun acc (_, c) -> acc +. c) 0. t.median_credits in
  List.map
    (fun (who, c) -> (who, if total = 0. then 0. else c /. total))
    t.median_credits

let pp_hist fmt name h =
  if h.count = 0 then Format.fprintf fmt "  %-16s (no samples)@." name
  else
    Format.fprintf fmt "  %-16s n=%-6d mean=%a  min=%a  max=%a@." name h.count
      Event.pp_ns
      (int_of_float (hist_mean_ns h))
      Event.pp_ns h.min_ns Event.pp_ns h.max_ns

let pp_summary fmt t =
  Format.fprintf fmt
    "lineage: %d chains (%d complete, %d in flight at end of trace), %d orphans@."
    t.total t.complete t.in_flight
    (List.length t.orphans);
  if t.dropped > 0 then
    Format.fprintf fmt
      "  WARNING: trace ring dropped %d entries; the trace is a suffix of \
       the run and early chains may appear orphaned@."
      t.dropped;
  pp_hist fmt "propose->adopt" t.propose_to_adopt;
  pp_hist fmt "adopt->deliver" t.adopt_to_deliver;
  if t.negative_lags > 0 then
    Format.fprintf fmt "  NEGATIVE LAGS: %d (protocol bug: effect before cause)@."
      t.negative_lags;
  (match median_wins t with
  | [] -> ()
  | wins ->
      Format.fprintf fmt "  median wins:     %s@."
        (String.concat "  "
           (List.map
              (fun (who, share) -> Printf.sprintf "r%d %.1f%%" who (100. *. share))
              wins)));
  (match t.skew_series with
  | [] -> ()
  | series ->
      let n = List.length series in
      let sum =
        List.fold_left (fun acc (_, s) -> acc + s) 0 series
      in
      let max_skew =
        List.fold_left
          (fun acc (_, s) -> Int.max s acc)
          0 series
      in
      Format.fprintf fmt "  proposal skew:   mean=%a  max=%a  (%d points)@."
        Event.pp_ns
        (sum / n)
        Event.pp_ns max_skew n);
  List.iteri
    (fun i o ->
      if i < 12 then
        Format.fprintf fmt "  orphan: vm%d pkt #%d at r%d — %s@." o.o_vm
          o.o_ingress_seq o.o_replica (orphan_kind_label o.kind)
      else if i = 12 then
        Format.fprintf fmt "  ... %d more orphans@." (List.length t.orphans - 12))
    t.orphans
