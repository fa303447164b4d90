(* Command-line front end for the StopWatch library:
     stopwatch plan     -- replica placement planning (Sec. VIII)
     stopwatch download -- file-retrieval benchmark (Fig. 5 point)
     stopwatch nfs      -- NFS latency benchmark (Fig. 6 point)
     stopwatch parsec   -- PARSEC runtime benchmark (Fig. 7 row)
     stopwatch attack   -- timing-attack scenario (Fig. 4 / Sec. IX)
     stopwatch trace    -- record a traced run; export Perfetto/JSONL,
                           reconstruct causal lineage
     stopwatch workload -- check/run declarative .scn scenarios (DSL)
     stopwatch soak     -- checkpointed, crash-resumable scenario run
     stopwatch bisect   -- first divergence between two soak timelines
     stopwatch leak     -- leakage audit of a .scn scenario's config pairs

   Scenario loading, validation, overrides, variant runs and leak audits
   live in the library (Sw_workload.Dsl and Run); the subcommands parse
   arguments, make one library call and print. *)

open Cmdliner
module Time = Sw_sim.Time
module Dsl = Sw_workload.Dsl
module Wrun = Sw_workload.Run
module Scenario = Sw_attack.Scenario
module Audit = Sw_leak.Audit
module Report = Sw_runner.Report

(* --- Shared terms and printers ------------------------------------------ *)

(* Shared -j/--jobs option: shard a command's independent simulations over
   a sw_runner domain pool. Per-job seeds are fixed before dispatch, so any
   worker count reports the same numbers. *)
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ]
        ~doc:"Worker domains for independent runs (1 = sequential).")

let error msg =
  Printf.eprintf "error: %s\n" msg;
  1

let with_pool jobs f =
  if jobs < 1 then error "--jobs must be >= 1"
  else if jobs = 1 then f None
  else Sw_runner.Pool.with_pool ~workers:jobs (fun pool -> f (Some pool))

(* A number flag restricted to the values the command can use: anything
   else is a command-line error that names the flag, not an exception from
   deep inside a run. *)
let number conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let positive_int = number Arg.int ~expected:"a positive integer" (fun n -> n > 0)
let positive_float = number Arg.float ~expected:"a positive number" (fun x -> x > 0.)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:".scn file.")

(* Any value goes through Dsl.override, which rejects a non-positive
   duration with a one-line error instead of running an empty scenario. *)
let seconds_arg default =
  Arg.(
    value
    & opt (some float) default
    & info [ "seconds" ] ~docv:"S"
        ~doc:"Simulated duration in seconds (> 0). On a .scn file it \
              overrides the scenario's own duration.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"PATH"
        ~doc:"Write the JSON report (for $(b,trace), the export) to $(docv).")

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ]
        ~doc:"Conservative-parallel shard count for scenarios with a \
              topology block (overrides the block's own count; 1 runs the \
              whole cloud on one engine, byte-identically). Scenarios \
              without a topology block, and attack scenarios, always run \
              unsharded; the per-variant $(b,-j) pool composes with this \
              (each variant's cloud uses its own shard gang).")

(* A .scn file with the command-line overrides applied and validated;
   every error names the file. *)
let load ?seconds ?shards ?partition file =
  Result.bind (Dsl.load_file file) (fun t ->
      Result.map_error
        (fun e -> file ^ ": " ^ e)
        (Dsl.override ?seconds ?shards ?partition t))

let write_output output data =
  match output with
  | None -> print_string data
  | Some path ->
      let oc = open_out path in
      output_string oc data;
      close_out oc

(* The one attack result line, for `attack` and for attack scenarios under
   `workload run`. *)
let run_attack ?pool (a : Dsl.attack) =
  List.iter
    (fun (key, (r : Scenario.result)) ->
      let obs = r.Scenario.attacker_inter_delivery_ms in
      let n = Array.length obs in
      let mean =
        if n = 0 then 0. else Array.fold_left ( +. ) 0. obs /. float_of_int n
      in
      Printf.printf
        "%s: %d deliveries, mean inter-delivery %.2f ms, divergences %d\n" key
        r.Scenario.deliveries mean r.Scenario.divergences)
    (Wrun.map_variants ?pool Scenario.run (Dsl.attack_specs a));
  0

(* The workload result line and report, for `workload run` and `soak`. *)
let print_workload (key, (r : Wrun.result)) =
  Printf.printf
    "%s: issued %d, completed %d (hits %d / misses %d), p50 %.2f ms, p99 \
     %.2f ms\n"
    key r.Wrun.issued r.Wrun.completed r.Wrun.hits r.Wrun.misses r.Wrun.p50_ms
    r.Wrun.p99_ms

let workload_report results =
  Report.Obj
    (List.map
       (fun (key, (r : Wrun.result)) ->
         ( key,
           Report.Obj
             [
               ("issued", Report.Int r.Wrun.issued);
               ("completed", Report.Int r.Wrun.completed);
               ("hits", Report.Int r.Wrun.hits);
               ("misses", Report.Int r.Wrun.misses);
               ("p50_ms", Report.Float r.Wrun.p50_ms);
               ("p99_ms", Report.Float r.Wrun.p99_ms);
             ] ))
       results)

(* --- plan -------------------------------------------------------------- *)

let plan_cmd =
  let run n c greedy =
    let module P = Sw_placement.Placement in
    let plan_result =
      if greedy then Ok (P.greedy_place ~n ~c ~k:max_int)
      else P.theorem2_place ~n ~c ~k:(P.theorem2_bound ~n ~c)
    in
    match plan_result with
    | Error e ->
        Printf.eprintf "error: %s (try --greedy for arbitrary n)\n" e;
        1
    | Ok plan ->
        (match P.verify plan with
        | Ok () -> ()
        | Error e -> failwith ("invalid plan: " ^ e));
        let k = List.length plan.P.placements in
        List.iteri
          (fun vm tri ->
            Printf.printf "vm%d: %s\n" vm
              (String.concat ","
                 (List.map string_of_int (Sw_placement.Triangle.vertices tri))))
          plan.P.placements;
        Printf.printf
          "# %d guest VMs on %d machines (capacity %d); utilisation %.0f%%; \
           isolation bound %d\n"
          k n c
          (100. *. P.utilization plan)
          (P.isolation_bound ~n);
        0
  in
  (* Three machines host one replica group; fewer can hold no guest. *)
  let machines = number Arg.int ~expected:"an integer >= 3" (fun n -> n >= 3) in
  let n =
    Arg.(value & opt machines 15 & info [ "n"; "machines" ] ~doc:"Machine count (>= 3).")
  in
  let c =
    Arg.(value & opt positive_int 5 & info [ "c"; "capacity" ] ~doc:"Guests per machine.")
  in
  let greedy =
    Arg.(value & flag & info [ "greedy" ] ~doc:"Use the greedy packer (any n).")
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Plan replica placement under the StopWatch constraint")
    Term.(const run $ n $ c $ greedy)

(* --- download ----------------------------------------------------------- *)

let download_cmd =
  let run size_kb udp baseline runs jobs =
    with_pool jobs (fun pool ->
        let open Sw_experiments in
        let protocol = if udp then File_transfer.Udp else File_transfer.Http in
        let o =
          File_transfer.run ?pool ~protocol ~baseline
            ~size_bytes:(size_kb * 1024) ~runs ()
        in
        Printf.printf "%s %d KB, %s: %.1f ms (mean of %d runs; divergences %d)\n"
          (if udp then "UDP" else "HTTP")
          size_kb
          (if baseline then "baseline" else "stopwatch")
          o.File_transfer.elapsed_ms runs o.File_transfer.divergences;
        List.iter
          (fun f ->
            Printf.printf "  failed run: %s\n"
              (Format.asprintf "%a" Sw_runner.Runner.pp_failure f))
          o.File_transfer.failed_runs;
        0)
  in
  let size =
    Arg.(value & opt positive_int 100 & info [ "size" ] ~doc:"File size in KB.")
  in
  let udp = Arg.(value & flag & info [ "udp" ] ~doc:"UDP+NAK instead of HTTP.") in
  let baseline =
    Arg.(value & flag & info [ "baseline" ] ~doc:"Unmodified Xen instead of StopWatch.")
  in
  let runs =
    Arg.(value & opt positive_int 3 & info [ "runs" ] ~doc:"Averaging runs.")
  in
  Cmd.v
    (Cmd.info "download" ~doc:"Time a file retrieval (Fig. 5 point)")
    Term.(const run $ size $ udp $ baseline $ runs $ jobs_arg)

(* --- nfs ------------------------------------------------------------------ *)

let nfs_cmd =
  let run rate ops baseline =
    let open Sw_experiments in
    let o = Nfs_bench.run ~baseline ~rate_per_s:rate ~ops () in
    Printf.printf
      "NFS @ %.0f ops/s (%s): mean %.2f ms/op, %d/%d completed, %.2f c2s pkt/op, \
       %.2f s2c pkt/op\n"
      rate
      (if baseline then "baseline" else "stopwatch")
      o.Nfs_bench.mean_latency_ms o.Nfs_bench.completed o.Nfs_bench.issued
      o.Nfs_bench.client_to_server_per_op o.Nfs_bench.server_to_client_per_op;
    0
  in
  let rate =
    Arg.(value & opt positive_float 100. & info [ "rate" ] ~doc:"Offered ops/s.")
  in
  let ops =
    Arg.(value & opt positive_int 600 & info [ "ops" ] ~doc:"Total operations.")
  in
  let baseline = Arg.(value & flag & info [ "baseline" ] ~doc:"Unmodified Xen.") in
  Cmd.v
    (Cmd.info "nfs" ~doc:"NFS latency under load (Fig. 6 point)")
    Term.(const run $ rate $ ops $ baseline)

(* --- parsec ----------------------------------------------------------------- *)

let parsec_cmd =
  let run name baseline =
    let open Sw_experiments in
    match
      List.find_opt
        (fun (p : Sw_apps.Parsec.profile) -> p.Sw_apps.Parsec.name = name)
        Sw_apps.Parsec.all_profiles
    with
    | None ->
        Printf.eprintf "unknown app %S; available: %s\n" name
          (String.concat ", "
             (List.map
                (fun (p : Sw_apps.Parsec.profile) -> p.Sw_apps.Parsec.name)
                Sw_apps.Parsec.all_profiles));
        1
    | Some profile ->
        let o = Parsec_bench.run ~baseline profile in
        Printf.printf "%s (%s): %.0f ms, %d disk interrupts, %d dd-violations\n" name
          (if baseline then "baseline" else "stopwatch")
          o.Parsec_bench.runtime_ms o.Parsec_bench.disk_interrupts
          o.Parsec_bench.delta_d_violations;
        0
  in
  let app_name =
    Arg.(value & pos 0 string "ferret" & info [] ~docv:"APP" ~doc:"PARSEC app name.")
  in
  let baseline = Arg.(value & flag & info [ "baseline" ] ~doc:"Unmodified Xen.") in
  Cmd.v
    (Cmd.info "parsec" ~doc:"Run a PARSEC-like workload (Fig. 7 row)")
    Term.(const run $ app_name $ baseline)

(* --- attack ------------------------------------------------------------------- *)

(* The attack flags [attack] and [trace] share. They describe a one-variant
   attack scenario that goes the way of a .scn file: validated by
   Dsl.override, compiled by Dsl.attack_specs. The variant key names the
   configuration and heads the result line. *)
let attack_term ~seconds =
  let build seconds baseline victim colluder replicas =
    let d = Scenario.default in
    let key =
      Printf.sprintf "%s replicas=%d victim=%b colluder=%b"
        (if baseline then "baseline" else "stopwatch")
        replicas victim colluder
    in
    let attack =
      {
        Dsl.seed = d.Scenario.seed;
        duration = d.Scenario.duration;
        replicas;
        ping_rate_per_s = d.Scenario.ping_rate_per_s;
        variants = [ { Dsl.key; baseline; victim; colluder } ];
      }
    in
    Result.bind
      (Dsl.override ?seconds { Dsl.name = "attack"; kind = Dsl.Attack attack })
      (function
        | { Dsl.kind = Dsl.Attack a; _ } -> Ok a
        | { Dsl.kind = Dsl.Workload _; _ } -> Error "not an attack scenario")
  in
  let baseline = Arg.(value & flag & info [ "baseline" ] ~doc:"Unmodified Xen.") in
  let victim = Arg.(value & flag & info [ "victim" ] ~doc:"Coresident victim.") in
  let colluder = Arg.(value & flag & info [ "colluder" ] ~doc:"Sec. IX colluder.") in
  let replicas =
    Arg.(value & opt int 3 & info [ "replicas" ] ~doc:"Replica count (odd).")
  in
  Term.(
    const build $ seconds_arg (Some seconds) $ baseline $ victim $ colluder
    $ replicas)

let attack_cmd =
  let run = function Error e -> error e | Ok a -> run_attack a in
  Cmd.v
    (Cmd.info "attack" ~doc:"Run a timing-attack scenario (Fig. 4 / Sec. IX)")
    Term.(const run $ attack_term ~seconds:20.)

(* --- trace -------------------------------------------------------------- *)

(* [--filter vm=0 --filter kind=median ...]: OR within one key, AND across
   keys. *)
let parse_filters filters =
  let vms = ref [] and replicas = ref [] and kinds = ref [] in
  let bad = ref None in
  List.iter
    (fun f ->
      match String.index_opt f '=' with
      | None -> bad := Some f
      | Some i -> (
          let key = String.sub f 0 i in
          let v = String.sub f (i + 1) (String.length f - i - 1) in
          match key with
          | "vm" -> (
              match int_of_string_opt v with
              | Some n -> vms := n :: !vms
              | None -> bad := Some f)
          | "replica" -> (
              match int_of_string_opt v with
              | Some n -> replicas := n :: !replicas
              | None -> bad := Some f)
          | "kind" -> kinds := v :: !kinds
          | _ -> bad := Some f))
    filters;
  match !bad with
  | Some f -> Error f
  | None ->
      let pass (e : Sw_obs.Trace.entry) =
        let ev = e.Sw_obs.Trace.event in
        (!vms = []
        || match Sw_obs.Event.vm_of ev with
           | Some vm -> List.mem vm !vms
           | None -> false)
        && (!replicas = []
           || match Sw_obs.Event.replica_of ev with
              | Some r -> List.mem r !replicas
              | None -> false)
        && (!kinds = [] || List.mem (Sw_obs.Event.label ev) !kinds)
      in
      Ok pass

(* The profile's timers as a table on stderr, for outputs that have no
   counter tracks to carry them. *)
let print_profile p =
  prerr_endline "profile (wall clock, inclusive):";
  List.iter
    (fun (name, ns, calls) ->
      Printf.eprintf "  %-20s %10.3f ms %10d calls\n" name
        (float_of_int ns /. 1e6) calls)
    (Sw_obs.Profile.to_list p)

let trace_cmd =
  let run attack seed capacity export output lineage filters crash profile_on =
    match (attack, parse_filters filters) with
    | Error e, _ -> error e
    | _, Error f ->
        error
          (Printf.sprintf
             "bad --filter %S (expected vm=N, replica=N or kind=LABEL)" f)
    | Ok _, Ok _ when export = None && not lineage ->
        error "nothing to output: pass --export chrome|jsonl, --lineage, or both"
    | Ok a, Ok pass ->
        let seed = Int64.of_int seed in
        let spec = snd (List.hd (Dsl.attack_specs { a with Dsl.seed })) in
        (* The lineage summary alone reads only lineage's events. *)
        let keep = if export = None then Some Sw_obs.Lineage.reads else None in
        let tr = Sw_obs.Trace.create ~capacity ?keep () in
        let profile =
          if profile_on then Some (Sw_obs.Profile.create ~enabled:true ())
          else None
        in
        let faults =
          if crash then
            (* Kill replica 0 of the attacker VM a quarter into the run, no
               restart: with the default config (no watchdog) the survivors
               stay quorum-starved, so every later packet's proposals never
               reach a median — the Unadopted_proposal orphans the lineage
               report tags. *)
            [
              Sw_fault.Schedule.at
                (Time.div_int spec.Scenario.duration 4)
                (Sw_fault.Fault.Replica_crash
                   { vm = 0; replica = 0; restart_after = None });
            ]
          else Sw_fault.Schedule.empty
        in
        ignore
          (Scenario.run { spec with Scenario.faults; trace = Some tr; profile });
        let entries = List.filter pass (Sw_obs.Trace.entries tr) in
        let meta =
          Sw_obs.Export.meta ~seed
            ~scenario:
              (Printf.sprintf
                 "attack m=%d baseline=%b victim=%b colluder=%b crash=%b"
                 a.Dsl.replicas spec.Scenario.baseline spec.Scenario.victim
                 spec.Scenario.colluder crash)
            ~trace_capacity:capacity
            ~trace_dropped:(Sw_obs.Trace.dropped tr) ()
        in
        (match export with
        | Some `Chrome ->
            write_output output (Sw_obs.Chrome.to_json ~meta ?profile entries)
        | Some `Jsonl -> write_output output (Sw_obs.Export.jsonl ~meta entries)
        | None -> ());
        (* Only a Chrome export carries the profile; print it otherwise. *)
        (match (profile, export) with
        | Some p, (Some `Jsonl | None) -> print_profile p
        | Some _, Some `Chrome | None, _ -> ());
        (* Keep the summary off stdout when the export already went there. *)
        let summary_fmt =
          if lineage && export <> None && output = None then
            Format.err_formatter
          else Format.std_formatter
        in
        if lineage then
          Format.fprintf summary_fmt "%a@?" Sw_obs.Lineage.pp_summary
            (Sw_obs.Lineage.of_entries ~dropped:(Sw_obs.Trace.dropped tr)
               entries);
        0
  in
  let seed =
    Arg.(value & opt int 0xA77ACC & info [ "seed" ] ~doc:"Simulation seed.")
  in
  let capacity =
    Arg.(
      value & opt positive_int 65536
      & info [ "capacity" ] ~doc:"Trace ring capacity.")
  in
  let export =
    Arg.(
      value
      & opt (some (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ])) None
      & info [ "export" ]
          ~doc:"Export format: $(b,chrome) (Perfetto-loadable trace-event \
                JSON with lineage flow arrows) or $(b,jsonl) (one event per \
                line).")
  in
  let lineage =
    Arg.(
      value & flag
      & info [ "lineage" ]
          ~doc:"Print the causal-lineage summary (chains, lag histograms, \
                median-win shares, skew, orphans).")
  in
  let filters =
    Arg.(
      value & opt_all string []
      & info [ "filter" ]
          ~doc:"Keep only matching events: $(b,vm=N), $(b,replica=N) or \
                $(b,kind=LABEL). Repeatable; same-key filters OR, distinct \
                keys AND.")
  in
  let crash =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:"Crash one replica a quarter into the run (no restart) to \
                demonstrate orphan detection.")
  in
  let profile_on =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Enable wall-clock self-profiling; timers export as counter \
                tracks of a $(b,chrome) export, and print as a table on \
                stderr otherwise. Non-deterministic — leave off when \
                comparing exports byte for byte.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Record a traced scenario; export Perfetto/JSONL and reconstruct \
             causal lineage")
    Term.(
      const run $ attack_term ~seconds:2. $ seed $ capacity $ export
      $ output_arg $ lineage $ filters $ crash $ profile_on)

(* --- workload ------------------------------------------------------------ *)

(* `stopwatch workload check FILES...` parses and validates .scn scenario
   files (reporting the DSL's line/column/field-path errors); `stopwatch
   workload run FILE` runs one, sharding its independent variants (load
   multipliers, attack variants) over -j worker domains. *)

let workload_check_cmd =
  let run files =
    let failures =
      List.filter_map
        (fun file ->
          match load file with
          | Ok t ->
              let kind =
                match t.Dsl.kind with
                | Dsl.Attack a ->
                    Printf.sprintf "attack, %d variants" (List.length a.Dsl.variants)
                | Dsl.Workload w ->
                    let topo =
                      match w.Dsl.topology with
                      | None -> ""
                      | Some t ->
                          Printf.sprintf ", %d hosts / %d shards" t.Dsl.hosts
                            t.Dsl.shards
                    in
                    Printf.sprintf "workload, %d load points%s"
                      (List.length w.Dsl.load_multipliers)
                      topo
              in
              Printf.printf "%s: OK (%s: %s)\n" file t.Dsl.name kind;
              None
          | Error e ->
              Printf.eprintf "%s\n" e;
              Some file)
        files
    in
    if failures = [] then 0 else 1
  in
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:".scn files.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and validate .scn scenario files")
    Term.(const run $ files)

(* Warm start: restore the prepared t=0 cloud from the cache (or build and
   checkpoint it on first use), then advance it — byte-identical to the
   cold path, which the identity manifest pins. The key is the digest of the
   re-printed variant, which covers seed, duration, multiplier scaling and
   the (overridden) topology block, so any change to what gets built
   misses the cache. *)
let warm_run ~dir ~name (w : Dsl.workload) =
  let key =
    Printf.sprintf "workload:%s:shards=%d"
      (Digest.to_hex
         (Digest.string (Dsl.print { Dsl.name; kind = Dsl.Workload w })))
      (Dsl.shards w)
  in
  match
    Sw_ckpt.Warm.load_or_build ~dir ~key ~seed:w.Dsl.seed ~shards:(Dsl.shards w)
      ~build:(fun () -> Wrun.prepare w)
  with
  | Error e -> failwith ("warm-start cache: " ^ e)
  | Ok (h, _) ->
      Stopwatch.Cloud.run h.Wrun.cloud ~until:h.Wrun.until;
      h.Wrun.finish ()

let workload_run_cmd =
  let run file seconds jobs shards partition warm output =
    with_pool jobs (fun pool ->
        match load ?seconds ?shards ?partition file with
        | Error e -> error e
        | Ok { Dsl.kind = Dsl.Attack a; _ } -> run_attack ?pool a
        | Ok { Dsl.name; kind = Dsl.Workload w } ->
            let make =
              match warm with
              | None -> fun w -> Wrun.run w
              | Some dir -> warm_run ~dir ~name
            in
            let results =
              Wrun.map_variants ?pool make (Dsl.workload_variants ~name w)
            in
            List.iter print_workload results;
            Option.iter
              (fun path ->
                write_output (Some path)
                  (Report.to_string (workload_report results) ^ "\n"))
              output;
            0)
  in
  let partition =
    Arg.(
      value
      & opt
          (some
             (enum [ ("contiguous", Dsl.Contiguous); ("affinity", Dsl.Affinity) ]))
          None
      & info [ "partition" ]
          ~doc:"Cell-to-shard placement for sharded topology scenarios, \
                overriding the block's own $(b,partition) field: \
                $(b,contiguous) cuts static blocks, $(b,affinity) packs \
                chatty cells co-shard (Sw_placement.Affinity over the \
                east-west traffic graph). Either way the report bytes are \
                identical; only the cross-shard message rate and wall time \
                change.")
  in
  let warm =
    Arg.(
      value
      & opt (some string) None
      & info [ "warm" ] ~docv:"DIR"
          ~doc:"Warm-start cache directory: restore each variant's \
                prepared t=0 cloud from a checkpoint image under \
                $(docv) instead of rebuilding it (building and caching it \
                on first use). Reports are byte-identical to a cold run. \
                Images are same-binary artifacts; stale ones are rebuilt \
                transparently.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and run a .scn scenario")
    Term.(
      const run $ file_arg $ seconds_arg None $ jobs_arg $ shards_arg
      $ partition $ warm $ output_arg)

let workload_cmd =
  Cmd.group
    (Cmd.info "workload"
       ~doc:"Declarative workload scenarios: check and run .scn files")
    [ workload_check_cmd; workload_run_cmd ]

(* --- soak ----------------------------------------------------------------- *)

(* Exit code of a --kill-after crash: distinctive, so a harness (the
   identity manifest's resumed-soak line) can tell a simulated crash from a
   real failure. *)
let killed_exit = 70

let soak_cmd =
  let run file dir every_s seconds shards kill_after keep output quiet =
    match load ?seconds ?shards file with
    | Error e -> error e
    | Ok { Dsl.kind = Dsl.Attack _; _ } ->
        error (file ^ ": soak needs a workload scenario")
    | Ok scn -> (
        let on_event ev =
          if not quiet then
            match ev with
            | Sw_ckpt.Soak.Resumed { index; sim_ns } ->
                Printf.eprintf "  [soak] resumed from checkpoint %d (t=%dns)\n%!"
                  index sim_ns
            | Sw_ckpt.Soak.Checkpointed { index; sim_ns; bytes; _ } ->
                Printf.eprintf "  [soak] checkpoint %d at %dns (%d bytes)\n%!"
                  index sim_ns bytes
            | Sw_ckpt.Soak.Skipped_image { path; error } ->
                Printf.eprintf "  [soak] skipped %s: %s\n%!" path
                  (Sw_ckpt.Image.error_to_string error)
            | Sw_ckpt.Soak.Leak_sampled { index; sim_ns; leak } ->
                Printf.eprintf "  [soak] leak sample at checkpoint %d (t=%dns): %s\n%!"
                  index sim_ns
                  (if leak then "drift flagged" else "clean")
            | Sw_ckpt.Soak.Finished { sim_ns } ->
                Printf.eprintf "  [soak] finished at %dns\n%!" sim_ns
        in
        match
          Sw_ckpt.Soak.run ~scenario:scn ~dir ~every:(Time.of_float_s every_s)
            ?kill_after ?keep ~on_event ()
        with
        | exception Sw_ckpt.Soak.Killed { checkpoints; sim_ns } ->
            Printf.eprintf "  [soak] killed after %d checkpoint(s) at %dns\n%!"
              checkpoints sim_ns;
            killed_exit
        | exception Invalid_argument e -> error e
        | Error e -> error (Format.asprintf "%a" Sw_ckpt.Soak.pp_error e)
        | Ok o ->
            (* Same line and report shape as `workload run`, and nothing
               about the recovery path in either: an interrupted-and-resumed
               soak must byte-match an uninterrupted one. *)
            let results = [ (scn.Dsl.name, o.Sw_ckpt.Soak.result) ] in
            List.iter print_workload results;
            Option.iter
              (fun path ->
                write_output (Some path)
                  (Report.to_string (workload_report results) ^ "\n"))
              output;
            0)
  in
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"Checkpoint directory (created).")
  in
  let every =
    Arg.(
      value & opt positive_float 0.25
      & info [ "every" ]
          ~doc:"Checkpoint interval in simulated seconds (absolute grid: a \
                resumed run captures the same instants as a straight one).")
  in
  let kill_after =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "kill-after" ]
          ~doc:"Crash (exit 70, no report) after writing N checkpoints in \
                this process — for exercising recovery; rerun the same \
                command to resume.")
  in
  let keep =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "keep" ] ~doc:"Prune the timeline to the newest N images.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No per-checkpoint progress.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Run a .scn workload with periodic checkpoints, resuming from \
             the newest valid image after a crash; the final report is \
             byte-identical however often the run was interrupted")
    Term.(
      const run $ file_arg $ dir $ every $ seconds_arg None $ shards_arg
      $ kill_after $ keep $ output_arg $ quiet)

(* --- leak ------------------------------------------------------------------ *)

let leak_cmd =
  let run file seconds jobs output =
    with_pool jobs (fun pool ->
        match load ?seconds file with
        | Error e -> error e
        | Ok t -> (
            let registry = Sw_obs.Registry.create () in
            match Wrun.audits ?pool ~registry t with
            | [] ->
                error
                  (file
                 ^ " has no auditable config pair (need both a victim and a \
                    no-victim variant)")
            | audits ->
                List.iter
                  (fun (a : Audit.t) ->
                    Printf.printf "%s: %s\n" a.Audit.label
                      (match Audit.guest_leaking a with
                      | [] -> "guest-visible channel clean (no detector flags)"
                      | ds ->
                          Printf.sprintf "guest-visible channel LEAKS (%s)"
                            (String.concat ", " ds));
                    List.iter
                      (fun (key, ds) ->
                        Printf.printf "  attribution: %s <- %s\n" key
                          (String.concat ", " ds))
                      (Audit.attribution a))
                  audits;
                let report =
                  Report.Obj
                    [
                      ("name", Report.String t.Dsl.name);
                      ("leakage", Report.List (List.map Audit.to_report audits));
                      ( "metrics",
                        Report.of_metrics (Sw_obs.Registry.snapshot registry) );
                    ]
                in
                Option.iter
                  (fun path ->
                    write_output (Some path) (Report.to_string report ^ "\n"))
                  output;
                0))
  in
  Cmd.v
    (Cmd.info "leak"
       ~doc:"Audit a .scn scenario for timing leakage: run its config \
             pairs (victim vs no-victim per configuration for attack \
             scenarios, StopWatch-off vs -on for workloads), sweep the \
             detector battery over every lineage-attributed observation \
             series, and report per-detector p-values, effect sizes and \
             observations-needed curves")
    Term.(
      const run $ file_arg $ seconds_arg None $ jobs_arg $ output_arg)

(* --- bisect ---------------------------------------------------------------- *)

let bisect_cmd =
  let run a b =
    match Sw_ckpt.Bisect.first_divergence ~a ~b with
    | Ok d ->
        Format.printf "%a@?" Sw_ckpt.Bisect.pp_divergence d;
        1
    | Error (Sw_ckpt.Bisect.No_divergence { compared }) ->
        Printf.printf "no divergence: all %d shared checkpoints agree\n"
          compared;
        0
    | Error e ->
        Printf.eprintf "error: %s\n"
          (Format.asprintf "%a" Sw_ckpt.Bisect.pp_error e);
        2
  in
  let a =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR_A" ~doc:"First checkpoint directory.")
  in
  let b =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DIR_B" ~doc:"Second checkpoint directory.")
  in
  Cmd.v
    (Cmd.info "bisect"
       ~doc:"Find the first divergent checkpoint between two soak \
             timelines, the metrics that differ, and (single-shard sides) \
             the first divergent trace event with its causal lineage. \
             Exit: 0 = identical, 1 = divergence found (reported on \
             stdout), 2 = error — the diff convention")
    Term.(const run $ a $ b)

let () =
  let doc = "StopWatch: replicated-VM timing-channel mitigation (simulated)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "stopwatch" ~doc)
          [
            plan_cmd; download_cmd; nfs_cmd; parsec_cmd; attack_cmd; trace_cmd;
            workload_cmd; soak_cmd; bisect_cmd; leak_cmd;
          ]))
