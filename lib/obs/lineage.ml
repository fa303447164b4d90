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

(* The kinds [of_iter] folds; a trace that keeps only these loses nothing
   reconstruction reads. *)
let reads = function
  | Event.Ingress_replicated _ | Event.Packet_proposed _
  | Event.Median_adopted _ | Event.Packet_delivered _
  | Event.Egress_released _ ->
      true
  | _ -> false

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

(* Every sort below is over distinct keys, so hash-table iteration order
   never reaches an output. *)
let by_key (a, _) (b, _) = Int.compare a b

let compare_chain a b =
  let c = Int.compare a.vm b.vm in
  if c <> 0 then c else Int.compare a.ingress_seq b.ingress_seq

let kind_rank = function Unadopted_proposal -> 0 | Unmatched_delivery -> 1

let compare_orphan a b =
  let c = Int.compare a.o_vm b.o_vm in
  if c <> 0 then c
  else
    let c = Int.compare a.o_ingress_seq b.o_ingress_seq in
    if c <> 0 then c
    else
      let c = Int.compare a.o_replica b.o_replica in
      if c <> 0 then c else Int.compare (kind_rank a.kind) (kind_rank b.kind)

(* [cell tbl k init] is [tbl]'s cell for [k], made by [init] on first use. *)
let cell tbl k init =
  match Int_tbl.find_opt tbl k with
  | Some c -> c
  | None ->
      let c = init () in
      Int_tbl.add tbl k c;
      c

let push tbl k v =
  let c = cell tbl k (fun () -> ref []) in
  c := v :: !c

(* [(k, f !cell)] for every cell of [tbl], sorted by key. *)
let sorted_cells tbl f =
  List.sort by_key (Int_tbl.fold (fun k c acc -> (k, f !c) :: acc) tbl [])

let mem_int (r : int) l = List.exists (fun x -> x = r) l

let of_iter ~dropped iter =
  (* Chains keyed by (vm, ingress_seq) packed into one int: sequence
     numbers stay below 2^32. *)
  let builders : builder Int_tbl.t = Int_tbl.create 256 in
  let builder vm seq =
    cell builders ((vm lsl 32) lor seq) (fun () ->
        {
          b_vm = vm;
          b_seq = seq;
          b_ingress = None;
          b_proposals = [];
          b_adoptions = [];
          b_deliveries = [];
        })
  in
  (* Per-VM accumulators outside the chain structure: egress release
     instants (which have no ingress_seq) and propose->adopt lags. *)
  let egress_at : int list ref Int_tbl.t = Int_tbl.create 8 in
  let pa_vm : int list ref Int_tbl.t = Int_tbl.create 8 in
  iter (fun (e : Trace.entry) ->
      let at_ns = e.Trace.at_ns in
      match e.Trace.event with
      | Event.Ingress_replicated { vm; ingress_seq; _ } ->
          let b = builder vm ingress_seq in
          if Option.is_none b.b_ingress then b.b_ingress <- Some at_ns
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
      | Event.Egress_released { vm; _ } -> push egress_at vm at_ns
      | _ -> ());
  let chains =
    List.sort compare_chain
      (Int_tbl.fold
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
  let credits : float ref Int_tbl.t = Int_tbl.create 8 in
  let skew = ref [] in
  let lag_push acc a b =
    let d = b - a in
    if d < 0 then incr negative else acc := d :: !acc
  in
  List.iter
    (fun c ->
      let replicas_of f l = List.sort_uniq Int.compare (List.map f l) in
      let observers = replicas_of (fun (p : proposal) -> p.observer) c.proposals in
      let adopters = replicas_of (fun (a : adoption) -> a.replica) c.adoptions in
      let deliverers =
        replicas_of (fun (d : delivery) -> d.replica) c.deliveries
      in
      (match (c.adoptions, c.deliveries) with
      | _ :: _, _ :: _ -> incr complete
      | _ :: _, [] -> incr in_flight
      | [], _ -> ());
      let orphan replica kind =
        orphans :=
          { o_vm = c.vm; o_ingress_seq = c.ingress_seq; o_replica = replica; kind }
          :: !orphans
      in
      List.iter
        (fun r -> if not (mem_int r adopters) then orphan r Unadopted_proposal)
        observers;
      List.iter
        (fun r -> if not (mem_int r adopters) then orphan r Unmatched_delivery)
        deliverers;
      (* propose -> adopt lag, anchored at the replica's own proposal (its
         first observed one when the own proposal fell out of the window). *)
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
                push pa_vm c.vm d
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
              let c = cell credits who (fun () -> ref 0.) in
              c := !c +. share)
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
  {
    chains;
    orphans = List.sort compare_orphan !orphans;
    total = List.length chains;
    complete = !complete;
    in_flight = !in_flight;
    propose_to_adopt = hist_of_lags !pa_lags;
    adopt_to_deliver = hist_of_lags !ad_lags;
    median_credits = sorted_cells credits Fun.id;
    skew_series = List.rev !skew;
    negative_lags = !negative;
    dropped;
    pa_ms_by_vm =
      sorted_cells pa_vm (fun l -> Array.of_list (List.rev_map ms_of_ns l));
    egress_gap_ms_by_vm =
      (let rec gaps acc = function
         | a :: (b :: _ as rest) -> gaps (ms_of_ns (b - a) :: acc) rest
         | _ -> Array.of_list (List.rev acc)
       in
       sorted_cells egress_at (fun l -> gaps [] (List.rev l)));
  }

let of_entries ?(dropped = 0) entries =
  of_iter ~dropped (fun f -> List.iter f entries)

let of_trace tr = of_iter ~dropped:(Trace.dropped tr) (Trace.iter tr)

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
    let by_vm : float list ref Int_tbl.t = Int_tbl.create 8 in
    let last : int Int_tbl.t = Int_tbl.create 8 in
    List.iter
      (fun c ->
        match c.deliveries with
        | [] -> ()
        | { virt_ns; _ } :: _ ->
            (match Int_tbl.find_opt last c.vm with
            | Some prev -> push by_vm c.vm (ms_of_ns (virt_ns - prev))
            | None -> ());
            Int_tbl.replace last c.vm virt_ns)
      t.chains;
    by_vm
  in
  (* Ingress latency: per VM, ingress stamp to first delivery (virtual
     delivery instant), one sample per chain that carries both ends. The
     pinger side of the probe knows its own send times, so this series is
     observable by the attack apparatus even though the ingress stamp is
     not guest-visible. *)
  let ingress_latency =
    let by_vm : float list ref Int_tbl.t = Int_tbl.create 8 in
    List.iter
      (fun c ->
        match (c.ingress_at_ns, c.deliveries) with
        | Some t0, { virt_ns; _ } :: _ ->
            push by_vm c.vm (ms_of_ns (virt_ns - t0))
        | _ -> ())
      t.chains;
    by_vm
  in
  let series tbl = sorted_cells tbl (fun l -> Array.of_list (List.rev l)) in
  let tag m series =
    List.filter_map
      (fun (vm, xs) -> if Array.length xs = 0 then None else Some ((vm, m), xs))
      series
  in
  let all =
    tag Median_adoption t.pa_ms_by_vm
    @ tag Delivery_gap (series delivery_gaps)
    @ tag Egress_release t.egress_gap_ms_by_vm
    @ tag Ingress_latency (series ingress_latency)
  in
  List.sort
    (fun ((va, ma), _) ((vb, mb), _) ->
      let c = Int.compare va vb in
      if c <> 0 then c else Int.compare (mechanism_rank ma) (mechanism_rank mb))
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
