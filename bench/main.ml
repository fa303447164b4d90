(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index), plus ablations and
   bechamel micro-benchmarks.

   Usage: main.exe [-j N] [-quick] [--shards N] [experiment ...]
   where experiment is one of fig1 fig2 fig4 fig5 fig6 fig7 fig8 fig9
   placement utilization theorems collusion ablation scale shard micro ckpt
   chaos leak quick, or nothing / "all" for everything except chaos and quick.
   [-quick] shrinks the chaos, engine, fig9, leak, and shard sweeps to their
   CI smoke forms.

   -j / --jobs N shards each experiment's independent simulations across N
   worker domains via sw_runner; results are identical to -j 1 (per-job
   seeds are derived before dispatch), only faster. --shards N narrows the
   shard experiment's conservative-parallel sweep to [1; N] (each variant's
   cloud then runs on N engine domains — composes with -j, which
   parallelises across variants). Every invocation also writes
   machine-readable results to BENCH_results.json. *)

let experiments =
  [
    ("fig1", fun ~pool:_ -> Fig1.run ());
    ("fig2", fun ~pool:_ -> Fig2.run ());
    ("fig4", fun ~pool -> Fig4.run ?pool ());
    ("fig5", fun ~pool -> Fig5.run ?pool ());
    ("fig6", fun ~pool -> Fig6.run ?pool ());
    ("fig7", fun ~pool -> Fig7.run ?pool ());
    ("fig8", fun ~pool:_ -> Fig8.run ());
    ("fig9", fun ~pool -> Fig9.run ?pool ());
    ("placement", fun ~pool:_ -> Bench_placement.run ());
    ("utilization", fun ~pool:_ -> Bench_utilization.run ());
    ("theorems", fun ~pool:_ -> Bench_theorems.run ());
    ("collusion", fun ~pool:_ -> Bench_collusion.run ());
    ("ablation", fun ~pool -> Bench_ablation.run ?pool ());
    ("scale", fun ~pool:_ -> Bench_scale.run ());
    ("shard", fun ~pool:_ -> Bench_shard.run ());
    ("micro", fun ~pool:_ -> Bench_micro.run ());
    ("engine", fun ~pool:_ -> Bench_engine.run ());
    ("alloc", fun ~pool:_ -> Bench_alloc.run ());
    ("ckpt", fun ~pool:_ -> Bench_ckpt.run ());
    ("chaos", fun ~pool -> Bench_chaos.run ?pool ());
    ("leak", fun ~pool -> Bench_leak.run ?pool ());
    ("quick", fun ~pool -> Bench_quick.run ?pool ());
  ]

let default_set =
  List.filter (fun (name, _) -> name <> "quick" && name <> "chaos") experiments
  |> List.map fst

let usage () =
  Printf.eprintf
    "usage: main.exe [-j N] [-quick] [--shards N] [experiment ...]\navailable: %s\n"
    (String.concat ", " (List.map fst experiments));
  exit 2

let parse_args () =
  let jobs = ref 1 in
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
        Bench_chaos.quick := true;
        Bench_engine.quick := true;
        Bench_shard.quick := true;
        Bench_leak.quick := true;
        Fig9.quick := true;
        go rest
    | "--shards" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 1 ->
            Bench_shard.shards_override := Some v;
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
  (!jobs, requested)

let () =
  let jobs, requested = parse_args () in
  let pool =
    if jobs > 1 then Some (Sw_runner.Pool.create ~workers:jobs ()) else None
  in
  if jobs > 1 then Printf.printf "[running on %d worker domains]\n%!" jobs;
  let t0 = Sw_obs.Profile.now_ns () in
  List.iter
    (fun name ->
      let f = List.assoc name experiments in
      let t = Sw_obs.Profile.now_ns () in
      f ~pool;
      let wall = float_of_int (Sw_obs.Profile.now_ns () - t) /. 1e9 in
      Bench_report.add_timing name wall;
      Printf.printf "\n[%s done in %.1f s]\n%!" name wall)
    requested;
  let total = float_of_int (Sw_obs.Profile.now_ns () - t0) /. 1e9 in
  Option.iter Sw_runner.Pool.shutdown pool;
  Printf.printf "\nTotal: %.1f s\n" total;
  Bench_report.write ~workers:jobs ~wall_s:total
