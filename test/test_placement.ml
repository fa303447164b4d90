(* Tests for the placement library: quasigroup structure, Bose's Steiner
   construction, Theorem 1 packing numbers against known maxima, and
   Theorem 2 placements validated against the StopWatch constraints. *)

module Q = Sw_placement.Quasigroup
module Tri = Sw_placement.Triangle
module St = Sw_placement.Steiner
module Pk = Sw_placement.Packing
module Pl = Sw_placement.Placement

(* --- Quasigroup ----------------------------------------------------------- *)

(* Structural checks of a quasigroup of order [n]: idempotent, commutative,
   each element once per row and column. *)
let is_idempotent q n =
  let ok = ref true in
  for x = 0 to n - 1 do
    if Q.op q x x <> x then ok := false
  done;
  !ok

let is_commutative q n =
  let ok = ref true in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      if Q.op q x y <> Q.op q y x then ok := false
    done
  done;
  !ok

let is_latin_square q n =
  let ok = ref true in
  for x = 0 to n - 1 do
    let row_seen = Array.make n false and col_seen = Array.make n false in
    for y = 0 to n - 1 do
      let r = Q.op q x y and c = Q.op q y x in
      if row_seen.(r) then ok := false else row_seen.(r) <- true;
      if col_seen.(c) then ok := false else col_seen.(c) <- true
    done
  done;
  !ok

let test_quasigroup_basic () =
  let q = Q.create 7 in
  Alcotest.(check bool) "idempotent" true (is_idempotent q 7);
  Alcotest.(check bool) "commutative" true (is_commutative q 7);
  Alcotest.(check bool) "latin" true (is_latin_square q 7)

let test_quasigroup_even_rejected () =
  Alcotest.check_raises "even order" (Invalid_argument "x") (fun () ->
      try ignore (Q.create 4) with Invalid_argument _ -> raise (Invalid_argument "x"))

let prop_quasigroup_properties =
  QCheck.Test.make ~name:"odd-order quasigroups are idempotent commutative latin"
    ~count:30
    QCheck.(int_range 0 30)
    (fun k ->
      let n = (2 * k) + 1 in
      let q = Q.create n in
      is_idempotent q n && is_commutative q n && is_latin_square q n)

(* --- Triangle -------------------------------------------------------------- *)

let test_triangle_normalisation () =
  let t = Tri.make 5 1 3 in
  Alcotest.(check (list int)) "sorted vertices" [ 1; 3; 5 ] (Tri.vertices t);
  Alcotest.(check int) "edges" 3 (List.length (Tri.edges t))

let test_triangle_degenerate () =
  Alcotest.check_raises "repeated vertex" (Invalid_argument "x") (fun () ->
      try ignore (Tri.make 1 1 2) with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_edge_disjoint () =
  let a = Tri.make 0 1 2 and b = Tri.make 0 3 4 and c = Tri.make 1 3 5 in
  Alcotest.(check bool) "disjoint family" true (Tri.edge_disjoint [ a; b; c ]);
  let d = Tri.make 0 1 5 in
  Alcotest.(check bool) "shared edge 0-1" false (Tri.edge_disjoint [ a; d ])

(* --- Steiner --------------------------------------------------------------- *)

let sts_size n = n * (n - 1) / 6

(* The full Steiner triple system on 6v + 3 points: the union of its groups. *)
let system ~v = List.concat (Array.to_list (St.groups ~v))

let test_bose_sizes () =
  List.iter
    (fun v ->
      let n = (6 * v) + 3 in
      let sys = system ~v in
      Alcotest.(check int)
        (Printf.sprintf "STS(%d) size" n)
        (sts_size n) (List.length sys);
      Alcotest.(check bool) "edge disjoint" true (Tri.edge_disjoint sys))
    [ 1; 2; 3; 4 ]

let test_bose_covers_all_edges () =
  (* An STS is a perfect edge cover: every pair appears exactly once. *)
  let v = 2 in
  let n = 15 in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun t -> List.iter (fun e -> Hashtbl.replace seen e ()) (Tri.edges t))
    (system ~v);
  Alcotest.(check int) "all edges covered" (n * (n - 1) / 2) (Hashtbl.length seen)

let test_groups_structure () =
  let v = 3 in
  let groups = St.groups ~v in
  Alcotest.(check int) "group count" (v + 1) (Array.length groups);
  Alcotest.(check int) "G0 size" ((2 * v) + 1) (List.length groups.(0));
  for t = 1 to v do
    Alcotest.(check int)
      (Printf.sprintf "G%d size" t)
      ((6 * v) + 3)
      (List.length groups.(t))
  done;
  (* G0 visits each node exactly once; each Gt (t>=1) exactly three times. *)
  let visits group =
    let count = Array.make ((6 * v) + 3) 0 in
    List.iter
      (fun tri -> List.iter (fun x -> count.(x) <- count.(x) + 1) (Tri.vertices tri))
      group;
    count
  in
  Array.iter (fun c -> Alcotest.(check int) "G0 visit" 1 c) (visits groups.(0));
  Array.iter (fun c -> Alcotest.(check int) "G1 visits" 3 c) (visits groups.(1))

let test_partial_gv_node_disjoint () =
  let v = 4 in
  let p = St.partial_gv ~v in
  Alcotest.(check int) "size v" v (List.length p);
  let nodes = List.concat_map Tri.vertices p in
  Alcotest.(check int)
    "nodes distinct" (List.length nodes)
    (List.length (List.sort_uniq compare nodes))

let prop_bose_edge_disjoint =
  QCheck.Test.make ~name:"Bose STS is edge-disjoint for all v" ~count:8
    QCheck.(int_range 1 8)
    (fun v ->
      let sys = system ~v in
      Tri.edge_disjoint sys
      && List.length sys = sts_size ((6 * v) + 3))

(* --- Packing (Theorem 1) ---------------------------------------------------- *)

let test_theorem1_known_values () =
  (* Known maximum triangle packings: STS for n = 1,3 mod 6; leave(K_n)
     values otherwise. *)
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "max packing K_%d" n)
        expected (Pk.max_packing_size n))
    [ (3, 1); (4, 1); (5, 2); (6, 4); (7, 7); (8, 8); (9, 12); (10, 13); (13, 26) ]

let test_greedy_valid () =
  List.iter
    (fun n ->
      let packing = Pk.greedy n in
      Alcotest.(check bool)
        (Printf.sprintf "greedy K_%d disjoint" n)
        true
        (Tri.edge_disjoint packing);
      if List.length packing > Pk.max_packing_size n then
        Alcotest.fail "greedy exceeds the maximum")
    [ 3; 5; 7; 9; 12; 20 ]

(* --- Placement (Theorem 2) --------------------------------------------------- *)

let test_theorem2_bounds () =
  Alcotest.(check int) "c=0 mod 3" 9 (Pl.theorem2_bound ~n:9 ~c:3);
  Alcotest.(check int) "c=1 mod 3" 12 (Pl.theorem2_bound ~n:9 ~c:4);
  Alcotest.(check int) "c=2 mod 3" ((1 * 15 / 3) + 2) (Pl.theorem2_bound ~n:15 ~c:2)

let test_theorem2_rejections () =
  (match Pl.theorem2_place ~n:10 ~c:2 ~k:1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "n=10 must be rejected");
  (match Pl.theorem2_place ~n:9 ~c:5 ~k:1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "c beyond (n-1)/2 must be rejected");
  match Pl.theorem2_place ~n:9 ~c:3 ~k:10 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "k beyond bound must be rejected"

let prop_theorem2_max_placements_valid =
  QCheck.Test.make ~name:"Theorem 2 placements at the bound verify" ~count:40
    QCheck.(pair (int_range 1 5) (int_range 1 100))
    (fun (v, c_seed) ->
      let n = (6 * v) + 3 in
      let c = 1 + (c_seed mod ((n - 1) / 2)) in
      let k = Pl.theorem2_bound ~n ~c in
      match Pl.theorem2_place ~n ~c ~k with
      | Error _ -> false
      | Ok plan -> (
          List.length plan.Pl.placements = k
          && match Pl.verify plan with Ok () -> true | Error _ -> false))

let test_verify_catches_violations () =
  let bad_edge =
    { Pl.machines = 6; capacity = 3; placements = [ Tri.make 0 1 2; Tri.make 0 1 3 ] }
  in
  (match Pl.verify bad_edge with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "shared edge must be rejected");
  let bad_capacity =
    {
      Pl.machines = 7;
      capacity = 1;
      placements = [ Tri.make 0 1 2; Tri.make 0 3 4 ];
    }
  in
  (match Pl.verify bad_capacity with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "capacity overflow must be rejected");
  let bad_range =
    { Pl.machines = 3; capacity = 1; placements = [ Tri.make 1 2 3 ] }
  in
  match Pl.verify bad_range with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-range machine must be rejected"

let test_greedy_place () =
  let plan = Pl.greedy_place ~n:10 ~c:2 ~k:6 in
  (match Pl.verify plan with
  | Ok () -> ()
  | Error e -> Alcotest.failf "greedy plan invalid: %s" e);
  if List.length plan.Pl.placements > 6 then Alcotest.fail "greedy placed too many"

let test_utilization () =
  match Pl.theorem2_place ~n:9 ~c:4 ~k:12 with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      Alcotest.(check (float 1e-9)) "full utilization" 1.0 (Pl.utilization plan);
      let loads = Pl.loads plan in
      Array.iter (fun l -> Alcotest.(check int) "per-machine load" 4 l) loads

(* --- Affinity ------------------------------------------------------------- *)

module Aff = Sw_placement.Affinity

let test_affinity_contiguous () =
  Alcotest.(check (array int)) "even blocks, low shards first"
    [| 0; 0; 0; 1; 1; 2; 2 |]
    (Aff.contiguous ~cells:7 ~shards:3);
  Alcotest.(check (array int)) "shards clamped to cells"
    [| 0; 1 |]
    (Aff.contiguous ~cells:2 ~shards:5)

(* The scenario the bench runs: a stride ring where every edge leaves its
   contiguous block, while the stride cycles fit whole under the balance
   bound — affinity must bring the cut to zero without unbalancing. *)
let test_affinity_beats_contiguous_on_stride () =
  let cells = 16 and stride = 4 and w = 10. in
  let g =
    {
      Aff.cells;
      edges =
        List.init cells (fun c ->
            { Aff.a = c; b = (c + stride) mod cells; weight = w });
    }
  in
  List.iter
    (fun shards ->
      let cap = (cells + shards - 1) / shards in
      let contiguous_cut = Aff.cut_weight g (Aff.contiguous ~cells ~shards) in
      let plan = Aff.partition g ~shards in
      Alcotest.(check bool)
        (Printf.sprintf "shards=%d: contiguous pays a cut" shards)
        true (contiguous_cut > 0.);
      Alcotest.(check (float 0.))
        (Printf.sprintf "shards=%d: affinity cut" shards)
        0. plan.Aff.cut_weight;
      Alcotest.(check (float 0.))
        (Printf.sprintf "shards=%d: total weight" shards)
        (w *. float_of_int cells)
        plan.Aff.total_weight;
      let load = Array.make shards 0 in
      Array.iter (fun s -> load.(s) <- load.(s) + 1) plan.Aff.shard_of_cell;
      Array.iteri
        (fun s l ->
          Alcotest.(check bool)
            (Printf.sprintf "shards=%d: shard %d within bound" shards s)
            true (l <= cap))
        load)
    [ 2; 4 ]

let prop_affinity_plan_valid =
  QCheck.Test.make
    ~name:"affinity plans respect the balance bound and price cuts honestly"
    ~count:100
    QCheck.(
      triple (int_range 1 24) (int_range 1 6)
        (small_list (triple (int_range 0 23) (int_range 0 23) (int_range 0 50))))
    (fun (cells, shards, raw_edges) ->
      let edges =
        List.filter_map
          (fun (a, b, w10) ->
            if a < cells && b < cells then
              Some { Aff.a; b; weight = float_of_int w10 /. 10. }
            else None)
          raw_edges
      in
      let g = { Aff.cells; edges } in
      let plan = Aff.partition g ~shards in
      let eff = min shards cells in
      let cap = (cells + eff - 1) / eff in
      let load = Array.make eff 0 in
      Array.iter (fun s -> load.(s) <- load.(s) + 1) plan.Aff.shard_of_cell;
      let balanced = Array.for_all (fun l -> l <= cap) load in
      let in_range =
        Array.for_all (fun s -> s >= 0 && s < eff) plan.Aff.shard_of_cell
      in
      let priced =
        Float.abs
          (plan.Aff.cut_weight -. Aff.cut_weight g plan.Aff.shard_of_cell)
        < 1e-9
      in
      let bounded = plan.Aff.cut_weight <= plan.Aff.total_weight +. 1e-9 in
      let deterministic =
        (Aff.partition g ~shards).Aff.shard_of_cell = plan.Aff.shard_of_cell
      in
      balanced && in_range && priced && bounded && deterministic)

let test_affinity_rejections () =
  let g = { Aff.cells = 4; edges = [ { Aff.a = 0; b = 9; weight = 1. } ] } in
  Alcotest.(check bool) "edge out of range rejected" true
    (match Aff.partition g ~shards:2 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "negative weight rejected" true
    (match
       Aff.partition
         { Aff.cells = 4; edges = [ { Aff.a = 0; b = 1; weight = -1. } ] }
         ~shards:2
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "shards < 1 rejected" true
    (match Aff.partition { Aff.cells = 4; edges = [] } ~shards:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "sw_placement"
    [
      ( "quasigroup",
        [
          Alcotest.test_case "order 7" `Quick test_quasigroup_basic;
          Alcotest.test_case "even rejected" `Quick test_quasigroup_even_rejected;
          QCheck_alcotest.to_alcotest prop_quasigroup_properties;
        ] );
      ( "triangle",
        [
          Alcotest.test_case "normalisation" `Quick test_triangle_normalisation;
          Alcotest.test_case "degenerate rejected" `Quick test_triangle_degenerate;
          Alcotest.test_case "edge disjointness" `Quick test_edge_disjoint;
        ] );
      ( "steiner",
        [
          Alcotest.test_case "Bose sizes" `Quick test_bose_sizes;
          Alcotest.test_case "perfect edge cover" `Quick test_bose_covers_all_edges;
          Alcotest.test_case "group structure" `Quick test_groups_structure;
          Alcotest.test_case "partial Gv" `Quick test_partial_gv_node_disjoint;
          QCheck_alcotest.to_alcotest prop_bose_edge_disjoint;
        ] );
      ( "packing",
        [
          Alcotest.test_case "Theorem 1 values" `Quick test_theorem1_known_values;
          Alcotest.test_case "greedy validity" `Quick test_greedy_valid;
        ] );
      ( "placement",
        [
          Alcotest.test_case "Theorem 2 bounds" `Quick test_theorem2_bounds;
          Alcotest.test_case "rejections" `Quick test_theorem2_rejections;
          QCheck_alcotest.to_alcotest prop_theorem2_max_placements_valid;
          Alcotest.test_case "verify catches violations" `Quick
            test_verify_catches_violations;
          Alcotest.test_case "greedy placement" `Quick test_greedy_place;
          Alcotest.test_case "utilization" `Quick test_utilization;
        ] );
      ( "affinity",
        [
          Alcotest.test_case "contiguous blocks" `Quick test_affinity_contiguous;
          Alcotest.test_case "beats contiguous on the stride ring" `Quick
            test_affinity_beats_contiguous_on_stride;
          Alcotest.test_case "rejections" `Quick test_affinity_rejections;
          QCheck_alcotest.to_alcotest prop_affinity_plan_valid;
        ] );
    ]
