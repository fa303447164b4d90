(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index), plus ablations and the
   simulator's own performance guards.

   Usage: main.exe [-j N] [-quick] [--shards N] [experiment ...]
      or: main.exe pcprof SCN [-ops N]   (exact-PC profile, bench_pcprof.ml)
   where experiment is one of fig1 fig2 fig4 fig5 fig6 fig7 fig8 fig9
   placement utilization theorems collusion ablation shard engine alloc ckpt
   chaos leak, or nothing / "all" for everything except chaos.
   [-quick] shrinks the chaos, collusion, engine, fig9, leak, and shard
   sweeps to their CI smoke forms.

   -j / --jobs N shards each experiment's independent simulations across N
   worker domains via sw_runner; results are identical to -j 1 (per-job
   seeds are derived before dispatch), only faster. --shards N narrows the
   shard experiment's conservative-parallel sweep to [1; N] (each variant's
   cloud then runs on N engine domains — composes with -j, which
   parallelises across variants). Every invocation also writes
   machine-readable results to BENCH_results.json. *)

(* What the command line hands every experiment: the runner pool (-j),
   the quick form (-quick) and the shard sweep override (--shards). *)
type opts = {
  pool : Sw_runner.Pool.t option;
  quick : bool;
  shards : int option;
}

let experiments =
  [
    ("fig1", fun _ -> Fig1.run ());
    ("fig2", fun _ -> Fig2.run ());
    ("fig4", fun o -> Fig4.run ?pool:o.pool ());
    ("fig5", fun o -> Fig5.run ?pool:o.pool ());
    ("fig6", fun o -> Fig6.run ?pool:o.pool ());
    ("fig7", fun o -> Fig7.run ?pool:o.pool ());
    ("fig8", fun _ -> Fig8.run ());
    ("fig9", fun o -> Fig9.run ?pool:o.pool ~quick:o.quick ());
    ("placement", fun _ -> Bench_placement.run ());
    ("utilization", fun _ -> Bench_utilization.run ());
    ("theorems", fun _ -> Bench_theorems.run ());
    ("collusion", fun o -> Bench_collusion.run ~quick:o.quick ());
    ("ablation", fun o -> Bench_ablation.run ?pool:o.pool ());
    ("shard", fun o -> Bench_shard.run ~quick:o.quick ?shards:o.shards ());
    ("engine", fun o -> Bench_engine.run ~quick:o.quick ());
    ("alloc", fun _ -> Bench_alloc.run ());
    ("ckpt", fun _ -> Bench_ckpt.run ());
    ("chaos", fun o -> Bench_chaos.run ?pool:o.pool ~quick:o.quick ());
    ("leak", fun o -> Bench_leak.run ?pool:o.pool ~quick:o.quick ());
  ]

let default_set =
  List.filter (fun (name, _) -> name <> "chaos") experiments |> List.map fst

let usage () =
  Printf.eprintf
    "usage: main.exe [-j N] [-quick] [--shards N] [experiment ...]\navailable: %s\n"
    (String.concat ", " (List.map fst experiments));
  exit 2

let parse_args () =
  let jobs = ref 1 in
  let quick = ref false in
  let shards = ref None in
  let names = ref [] in
  let rec go = function
    | [] -> ()
    | ("-j" | "--jobs") :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 1 ->
            jobs := v;
            go rest
        | _ ->
            Printf.eprintf "-j expects a positive integer, got %S\n" n;
            exit 2)
    | ("-j" | "--jobs") :: [] ->
        Printf.eprintf "-j expects a worker count\n";
        exit 2
    | ("-quick" | "--quick") :: rest ->
        quick := true;
        go rest
    | "--shards" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 1 ->
            shards := Some v;
            go rest
        | _ ->
            Printf.eprintf "--shards expects a positive integer, got %S\n" n;
            exit 2)
    | "--shards" :: [] ->
        Printf.eprintf "--shards expects a shard count\n";
        exit 2
    | name :: rest ->
        names := name :: !names;
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  let requested =
    match List.rev !names with [] | [ "all" ] -> default_set | l -> l
  in
  List.iter
    (fun name -> if not (List.mem_assoc name experiments) then usage ())
    requested;
  (!jobs, !quick, !shards, requested)

(* Stdout carries the experiments' tables alone, so a run's stdout is a
   pure function of the experiments and -quick; wall-clock lines go to
   stderr, like the runner's progress. *)
let () =
  (match Array.to_list Sys.argv with
  | _ :: "pcprof" :: args ->
      Bench_pcprof.main args;
      exit 0
  | _ -> ());
  let jobs, quick, shards, requested = parse_args () in
  let pool =
    if jobs > 1 then Some (Sw_runner.Pool.create ~workers:jobs ()) else None
  in
  if jobs > 1 then Printf.eprintf "[running on %d worker domains]\n%!" jobs;
  let t0 = Sw_obs.Profile.now_ns () in
  List.iter
    (fun name ->
      let f = List.assoc name experiments in
      let t = Sw_obs.Profile.now_ns () in
      f { pool; quick; shards };
      let wall = float_of_int (Sw_obs.Profile.now_ns () - t) /. 1e9 in
      Bench_report.add_timing name wall;
      Printf.eprintf "\n[%s done in %.1f s]\n%!" name wall)
    requested;
  let total = float_of_int (Sw_obs.Profile.now_ns () - t0) /. 1e9 in
  Option.iter Sw_runner.Pool.shutdown pool;
  Printf.eprintf "\nTotal: %.1f s\n%!" total;
  Bench_report.write ~workers:jobs ~wall_s:total
