(* One operation of one benchmark workload, on one OCaml domain.

   Usage: main.exe WORKLOAD SEED MODE

   WORKLOAD is fig4_leak, kv_base or fleet_resume, or calibrate (three
   runs of a fixed kernel that gauge the host's speed); SEED is the
   benchmark seed every input is derived from; MODE is [reference] (the untimed
   warm-up: a straight run whose digests later operations must reproduce),
   [op] (a timed operation) or [traced] (a timed operation that also
   records spans, enables the engine's Profile and performs the extra calls
   that split cost across layers). It prints one JSON line and exits 0,
   even when a check fails: run.py compares the digests and counts the
   failed operations. run.py spawns one process per operation, so every
   operation starts from a fresh heap under the same GC settings and the
   peak RSS the kernel reports for the process covers that operation
   alone. *)

module Dsl = Sw_workload.Dsl
module Run = Sw_workload.Run
module Scenario = Sw_attack.Scenario
module Snapshot = Sw_obs.Snapshot
module Profile = Sw_obs.Profile
module Audit = Sw_leak.Audit
module Image = Sw_ckpt.Image
module Cloud = Stopwatch.Cloud
module Time = Sw_sim.Time
module R = Sw_runner.Report

(* Fixed for parent and change alike; run.py records it in every row. These
   are OCaml 5.1's defaults, pinned so OCAMLRUNPARAM cannot move them: a
   2 MiB minor heap ran all three workloads 5-10 % faster than 512 KiB or
   8 MiB on the machine the bounds were set on. *)
let gc_minor_words = 1 lsl 18
let gc_space_overhead = 120

(* --- Spans on the monotonic clock ---------------------------------------- *)

(* Every timing the benchmark reports is derived from these spans, kept in
   memory and printed when the operation ends. An untimed or timed
   operation records only its phase boundaries; a traced one records
   the same spans around the same calls, plus the extra calls it makes. *)
type span = { id : int; parent : int; name : string; t0 : int64; t1 : int64 }

let spans = ref []
let next_id = ref 0
let open_spans = ref [ 0 ]

(* [timed name f] is [f ()], recorded as a span whose parent is the
   innermost span still open. *)
let timed name f =
  incr next_id;
  let id = !next_id in
  let parent = List.hd !open_spans in
  open_spans := id :: !open_spans;
  let t0 = Monotonic_clock.now () in
  let close () =
    let t1 = Monotonic_clock.now () in
    open_spans := List.tl !open_spans;
    spans := { id; parent; name; t0; t1 } :: !spans
  in
  Fun.protect ~finally:close f

(* --- What an operation reports ------------------------------------------- *)

(* One check per unit of work whose output is compared: its digest, and
   why it failed, if it did. *)
let checks : (string * R.t) list ref = ref []

let check ?(errors = []) name digest =
  let error =
    if errors = [] then R.Null else R.String (String.concat "; " errors)
  in
  checks :=
    (name, R.Obj [ ("digest", R.String digest); ("error", error) ]) :: !checks

(* Simulated seconds the advancing calls covered. *)
let sim_s = ref 0.

(* Per-layer counters read from the program's own metrics and profile,
   summed over the operation's runs. *)
let layers : (string, float) Hashtbl.t = Hashtbl.create 64

let merge_layer f name v =
  Hashtbl.replace layers name
    (match Hashtbl.find_opt layers name with None -> v | Some w -> f v w)

let add_layer = merge_layer ( +. )

let hex_digest s = Digest.to_hex (Digest.string s)

(* Allocation and major collections around the advancing calls only. *)
let gc_measured f =
  let allocated (st : Gc.stat) =
    st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words
  in
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  add_layer "sim.alloc_words" (allocated s1 -. allocated s0);
  add_layer "sim.major_collections"
    (float_of_int (s1.Gc.major_collections - s0.Gc.major_collections));
  v

(* The kinds the three workloads schedule; [sim.sched.other] counts the
   rest, untagged events included. *)
let event_kinds = [ "net.deliver"; "disk.complete"; "vmm.slice"; "vmm.dom0" ]

(* Adds the counters every workload reports, read from one metrics
   snapshot, and returns its replica divergences, which must be 0. *)
let read_counters snap =
  let counter = Snapshot.counter snap in
  let sum_matching p =
    List.fold_left
      (fun acc (name, d) ->
        match d with
        | Snapshot.Counter n when p name -> acc + n
        | _ -> acc)
      0 (Snapshot.to_list snap)
  in
  let add name n = add_layer name (float_of_int n) in
  let fired = counter "sim.events.fired" in
  add "sim.events" fired;
  let tagged =
    List.fold_left
      (fun acc kind ->
        let n = counter (Printf.sprintf "sim.events.%s.scheduled" kind) in
        add ("sim.sched." ^ kind) n;
        acc + n)
      0 event_kinds
  in
  add "sim.sched.other" (counter "sim.events.scheduled" - tagged);
  merge_layer Float.max "sim.queue_depth_max"
    (Snapshot.gauge snap "sim.queue.depth");
  let count_paths p =
    sum_matching (fun n -> p (String.split_on_char '.' n))
  in
  add "vmm.slices"
    (count_paths (function [ "vmm"; _; "slices" ] -> true | _ -> false));
  let divergences =
    count_paths (function [ _; "divergences" ] -> true | _ -> false)
  in
  add "vmm.divergences" divergences;
  add "net.delivered" (counter "net.delivered");
  add "net.ingress_replicated" (counter "net.ingress.replicated");
  add "net.egress_forwarded" (counter "net.egress.forwarded");
  add "net.mcast_retransmissions"
    (sum_matching (fun n ->
         String.starts_with ~prefix:"net.mcast." n
         && String.ends_with ~suffix:".retransmissions" n));
  add "disk.completed"
    (count_paths (function
      | [ "vmm"; _; "disk"; "completed" ] -> true
      | _ -> false));
  divergences

let divergence_errors n =
  if n = 0 then [] else [ Printf.sprintf "%d divergences" n ]

let read_profile p =
  List.iter
    (fun (name, ns, _count) ->
      add_layer ("profile." ^ name ^ "_ns") (float_of_int ns))
    (Profile.to_list p)

(* --- Seeds ----------------------------------------------------------------- *)

(* Every input of a workload comes from the benchmark seed alone. Seed 1
   keeps the scenario file's own seed, so the default run of fig4_leak is
   exactly `stopwatch leak` on that file; other seeds step away from it. *)
let derive seed base =
  Int64.add base (Int64.mul (Int64.of_int (seed - 1)) 0x9E3779B97F4A7C15L)

let load path =
  match Dsl.load_file path with Ok t -> t | Error e -> failwith e

(* --- fig4_leak ------------------------------------------------------------- *)

(* The same pairing `stopwatch leak` performs: victim (alt) against
   no-victim (null) within each backend, keys present on both sides. *)
let paired null alt =
  List.filter_map
    (fun (key, null_xs) ->
      Option.map
        (fun alt_xs -> { Audit.key; null = null_xs; alt = alt_xs })
        (List.assoc_opt key alt))
    null

let digest_series series =
  let b = Buffer.create 65536 in
  List.iter
    (fun (key, xs) ->
      Buffer.add_string b key;
      Buffer.add_char b '\n';
      Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h;" x)) xs;
      Buffer.add_char b '\n')
    series;
  hex_digest (Buffer.contents b)

let detector_names =
  List.sort_uniq compare
    (List.map (fun (d : Sw_leak.Detector.t) -> d.Sw_leak.Detector.name)
       Sw_leak.Detector.all)

(* The paper's verdict on the guest-visible series: the baseline pair is
   flagged by all five detectors, the StopWatch pair by none. It is
   asserted on seed 1 only, the scenario file's own seed and the
   configuration `stopwatch leak --smoke` asserts. Across 40 seeds at this
   horizon the split is seed-dependent (the Cohen's d effect gate misses
   some baseline pairs; multiple comparisons flag some StopWatch pairs), so
   on other seeds the report is checked for reproducibility alone. *)
let verdict_error (a : Audit.t) =
  let flagged =
    List.sort_uniq compare
      (List.concat_map
         (fun (f : Audit.finding) ->
           if String.starts_with ~prefix:"attacker/" f.Audit.f_key then f.Audit.leaking else [])
         a.Audit.findings)
  in
  let want = if a.Audit.label = "baseline" then detector_names else [] in
  if flagged = want then None
  else
    Some
      (Printf.sprintf "%s: guest channel flagged by [%s], want [%s]"
         a.Audit.label
         (String.concat ", " flagged)
         (String.concat ", " want))

let fig4_leak ~seed ~traced =
  let name, specs =
    timed "workload.dsl_load" (fun () ->
        match load "perfbench/scn/fig4_leak.scn" with
        | { Dsl.name; kind = Dsl.Attack a } ->
            (name, Dsl.attack_specs { a with Dsl.seed = derive seed a.Dsl.seed })
        | _ -> failwith "fig4_leak.scn: not an attack scenario")
  in
  let results =
    List.map
      (fun (key, (spec : Scenario.spec)) ->
        let xs =
          timed "sim.run" (fun () ->
              gc_measured (fun () -> Scenario.leak_series spec))
        in
        sim_s := !sim_s +. Time.to_float_s spec.Scenario.duration;
        let errors =
          if not traced then []
          else begin
            (* Split the advancing call: a plain run (no trace) gives the
               layer counters and, subtracted from leak_series, the cost of
               trace and lineage; a traced, profiled run gives the ring's
               dropped count and the engine's own timers. *)
            let plain = timed "sim.plain_run" (fun () -> Scenario.run spec) in
            let divergences = read_counters plain.Scenario.metrics in
            let tr = Sw_obs.Trace.create () in
            let p = Profile.create ~enabled:true () in
            ignore
              (timed "sim.traced_run" (fun () ->
                   Scenario.run { spec with Scenario.trace = Some tr; profile = Some p }));
            add_layer "obs.trace_dropped" (float_of_int (Sw_obs.Trace.dropped tr));
            read_profile p;
            divergence_errors divergences
          end
        in
        check key ~errors (digest_series xs);
        (key, spec, xs))
      specs
  in
  let registry = Sw_obs.Registry.create () in
  let audits =
    timed "leak.audit" (fun () ->
        List.filter_map
          (fun label ->
            let side victim =
              List.find_map
                (fun (_, (s : Scenario.spec), xs) ->
                  if s.Scenario.baseline = (label = "baseline")
                     && s.Scenario.victim = victim
                  then Some xs
                  else None)
                results
            in
            match (side false, side true) with
            | Some null, Some alt ->
                Some (Audit.run ~registry ~label (paired null alt))
            | _ -> None)
          [ "stopwatch"; "baseline" ])
  in
  let report =
    R.to_string
      (R.Obj
         [
           ("name", R.String name);
           ("leakage", R.List (List.map Audit.to_report audits));
           ("metrics", R.of_metrics (Sw_obs.Registry.snapshot registry));
         ])
  in
  let errors =
    (if List.length audits <> 2 then [ "missing config pair" ] else [])
    @ if seed = 1 then List.filter_map verdict_error audits else []
  in
  add_layer "leak.verdicts"
    (float_of_int
       (Snapshot.counter (Sw_obs.Registry.snapshot registry)
          "leak.detector.verdicts"));
  check "fig4/audit" ~errors (hex_digest report)

(* --- kv_base and fleet_resume ---------------------------------------------- *)

let load_workload path ~seed =
  match load path with
  | { Dsl.name; kind = Dsl.Workload w } -> (
      match
        Dsl.workload_variants ~name { w with Dsl.seed = derive seed w.Dsl.seed }
      with
      | [ (_, w) ] -> w
      | _ -> failwith (path ^ ": expected exactly one load multiplier"))
  | _ -> failwith (path ^ ": not a workload scenario")

let build path ~seed =
  let w = timed "workload.dsl_load" (fun () -> load_workload path ~seed) in
  (w, timed "cloud.build" (fun () -> Run.prepare w))

(* Advances in [slices] equal steps, one span each. Splitting a sequential
   run leaves its bytes unchanged (the golden digests check that), and
   short spans let run.py find each step's uncontended time (NOTES.md). *)
let slices = 16

let advance cloud ~until =
  let from = Sw_sim.Engine.now (Cloud.engine cloud) in
  let step = Time.div_int (Time.sub until from) slices in
  for i = 1 to slices do
    let until = if i = slices then until else Time.add from (Time.mul_int step i) in
    timed "sim.run" (fun () -> gc_measured (fun () -> Cloud.run cloud ~until))
  done

(* Distil and export a finished run, check its invariants, and read the
   layer counters out of the same snapshot. *)
let distil name (h : Run.handle) ~traced =
  let r = timed "obs.snapshot" h.Run.finish in
  let json =
    timed "obs.export" (fun () -> Sw_obs.Export.to_json_string r.Run.metrics)
  in
  let divergences = read_counters r.Run.metrics in
  if traced then read_profile (Sw_sim.Engine.profile (Cloud.engine h.Run.cloud));
  add_layer "workload.issued" (float_of_int r.Run.issued);
  add_layer "workload.completed" (float_of_int r.Run.completed);
  add_layer "workload.hits" (float_of_int r.Run.hits);
  add_layer "workload.misses" (float_of_int r.Run.misses);
  let errors =
    (if r.Run.completed = 0 then [ "no request completed" ] else [])
    @ divergence_errors divergences
  in
  check name ~errors (hex_digest json)

let enable_profile (h : Run.handle) =
  Profile.set_enabled (Sw_sim.Engine.profile (Cloud.engine h.Run.cloud)) true

let kv_base ~seed ~traced =
  let _, h = build "perfbench/scn/kv_base.scn" ~seed in
  if traced then enable_profile h;
  advance h.Run.cloud ~until:h.Run.until;
  sim_s := Time.to_float_s h.Run.until;
  distil "kv/run" h ~traced

(* The reference operation is the straight, uninterrupted run; every timed
   operation cuts it at half the horizon, checkpoints, writes and reads
   the image, restores and finishes, and must export the same bytes. *)
let fleet_resume ~seed ~traced ~straight =
  let w, h = build "perfbench/scn/fleet_resume.scn" ~seed in
  if traced then enable_profile h;
  let until = h.Run.until in
  sim_s := Time.to_float_s until;
  if straight then begin
    advance h.Run.cloud ~until;
    distil "fleet/cycle" h ~traced
  end
  else begin
    let cut = Time.div_int until 2 in
    advance h.Run.cloud ~until:cut;
    let payload =
      timed "ckpt.checkpoint" (fun () -> Cloud.checkpoint h.Run.cloud ~extra:h)
    in
    add_layer "ckpt.image_bytes" (float_of_int (String.length payload));
    let path = Printf.sprintf "perfbench/_out/fleet-%d.img" (Unix.getpid ()) in
    let meta =
      {
        Image.scenario = "perfbench/fleet_resume";
        seed = w.Dsl.seed;
        shards = 1;
        index = 0;
        sim_ns = Int64.of_float (Time.to_float_s cut *. 1e9);
        fingerprint = "";
        payload_digest = Digest.string "";
        payload_len = 0;
      }
    in
    let written = timed "ckpt.write" (fun () -> Image.write ~path meta ~payload) in
    (match written with
    | Ok () -> ()
    | Error e -> failwith ("image write: " ^ Image.error_to_string e));
    let read = timed "ckpt.read" (fun () -> Image.read ~path) in
    Sys.remove path;
    let payload =
      match read with
      | Ok (_, payload) -> payload
      | Error e -> failwith ("image read: " ^ Image.error_to_string e)
    in
    let restored =
      timed "ckpt.restore" (fun () ->
          (Cloud.restore payload : (Cloud.t * Run.handle, _) result))
    in
    let h =
      match restored with
      | Ok (_, h) -> h
      | Error e -> failwith (Format.asprintf "restore: %a" Cloud.pp_restore_error e)
    in
    advance h.Run.cloud ~until;
    distil "fleet/cycle" h ~traced;
    (* Unmarshalling alone, so restore_s - unmarshal_s is the Graft repair
       and group-id bookkeeping Cloud.restore adds. Last, so the extra copy
       cannot disturb the measured run. *)
    if traced then
      timed "ckpt.unmarshal" (fun () ->
          ignore (Sys.opaque_identity (Marshal.from_string payload 0 : Obj.t)))
  end

(* --- Calibration ------------------------------------------------------------- *)

module Int_map = Map.Make (Int)

(* A fixed stand-in for the simulator's kind of work that calls nothing in
   the repository: a balanced map used as a priority queue, a hash table,
   boxed Int64 arithmetic and short-lived allocation. Its time moves with
   the host's speed alone; run.py scales the end-to-end times by it. *)
let calibration_kernel () =
  let queue = ref Int_map.empty in
  let table = Hashtbl.create 4096 in
  let acc = ref 0L in
  for i = 1 to 20_000 do
    let key = (i * 2654435761) land 0xffff in
    queue := Int_map.add key (Int64.of_int i) !queue;
    (match Hashtbl.find_opt table (key land 0xfff) with
    | Some v -> acc := Int64.add !acc (Int64.mul v 3L)
    | None -> Hashtbl.replace table (key land 0xfff) (Int64.of_int key));
    if i land 1 = 0 then
      match Int_map.min_binding_opt !queue with
      | Some (k, v) ->
          acc := Int64.logxor !acc v;
          queue := Int_map.remove k !queue
      | None -> ()
  done;
  ignore (Sys.opaque_identity (!acc, Int_map.cardinal !queue))

let calibrate () =
  for _ = 1 to 3 do
    timed "bench.calibrate" calibration_kernel
  done

(* --- Entry point ------------------------------------------------------------ *)

let () =
  let workload, seed, mode =
    match Sys.argv with
    | [| _; w; s; m |] -> (w, int_of_string s, m)
    | _ ->
        prerr_endline "usage: main.exe WORKLOAD SEED (reference|op|traced)";
        exit 2
  in
  Gc.set
    {
      (Gc.get ()) with
      Gc.minor_heap_size = gc_minor_words;
      space_overhead = gc_space_overhead;
    };
  let traced = mode = "traced" in
  let op () =
    match workload with
    | "fig4_leak" -> fig4_leak ~seed ~traced
    | "kv_base" -> kv_base ~seed ~traced
    | "fleet_resume" ->
        fleet_resume ~seed ~traced ~straight:(mode = "reference")
    | "calibrate" -> calibrate ()
    | w -> failwith ("unknown workload " ^ w)
  in
  timed "bench.op" (fun () ->
      try op ()
      with e ->
        check (workload ^ "/exception") ~errors:[ Printexc.to_string e ] "");
  let num x = R.Float x in
  let span_json s =
    R.List
      [
        R.Int s.id; R.Int s.parent; R.String s.name;
        R.Int (Int64.to_int s.t0); R.Int (Int64.to_int s.t1);
      ]
  in
  print_endline
    (R.to_string
       (R.Obj
          [
            ("workload", R.String workload);
            ("ocaml", R.String Sys.ocaml_version);
            ( "gc",
              R.Obj
                [
                  ("minor_heap_words", R.Int gc_minor_words);
                  ("space_overhead", R.Int gc_space_overhead);
                ] );
            ("seed", R.Int seed);
            ("mode", R.String mode);
            ("checks", R.Obj (List.rev !checks));
            ("sim_s", num !sim_s);
            ( "layers",
              R.Obj (Hashtbl.fold (fun k v acc -> (k, num v) :: acc) layers []) );
            ("spans", R.List (List.rev_map span_json !spans));
          ]))
