(* sw_ckpt: the checkpoint/restore determinism contract (restore-then-run
   is byte-identical to run-straight-through, per shard layout and across
   them), image framing hardening (truncation, corruption, version skew),
   crash-recovery of the store and the soak driver, and divergence
   bisection over two checkpoint timelines. Plus the satellites: PRNG
   stream state round-trips and the trace ring's dropped-counter mirror. *)

module Time = Sw_sim.Time
module Prng = Sw_sim.Prng
module Cloud = Stopwatch.Cloud
module Dsl = Sw_workload.Dsl
module Run = Sw_workload.Run
module Export = Sw_obs.Export
module Snapshot = Sw_obs.Snapshot
module Trace = Sw_obs.Trace
module Event = Sw_obs.Event
module Registry = Sw_obs.Registry
module Image = Sw_ckpt.Image
module Store = Sw_ckpt.Store
module Soak = Sw_ckpt.Soak
module Bisect = Sw_ckpt.Bisect

(* dune runtest runs in _build/default/test; dune exec from the repo root. *)
let scn file =
  let candidates =
    [ Filename.concat "../examples" file; Filename.concat "examples" file ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Filename.concat "../examples" file

let load file =
  match Dsl.load_file (scn file) with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s failed to load: %s" file e

let small_workload () =
  match load "diurnal.scn" with
  | { Dsl.kind = Dsl.Workload w; _ } ->
      { w with Dsl.duration = Time.ms 400; load_multipliers = [ 1. ] }
  | _ -> Alcotest.fail "diurnal.scn is not a workload"

let slowdown ~at_ms ~factor =
  {
    Sw_fault.Schedule.at = Time.ms at_ms;
    span = Time.ms 150;
    fault = Sw_fault.Fault.Machine_slowdown { machine = 0; factor };
  }

(* Everything a result says, as one string: equal bytes = equal runs. *)
let result_bytes (r : Run.result) =
  Printf.sprintf "issued=%d completed=%d hits=%d misses=%d p50=%h p99=%h %s"
    r.Run.issued r.Run.completed r.Run.hits r.Run.misses r.Run.p50_ms
    r.Run.p99_ms
    (Export.to_json_string r.Run.metrics)

let restore_exn image =
  match Cloud.restore image with
  | Ok pair -> pair
  | Error e ->
      Alcotest.failf "restore failed: %s"
        (Format.asprintf "%a" Cloud.pp_restore_error e)

(* --- checkpoint/restore determinism --------------------------------------- *)

(* One prepared scenario, three executions: straight through; paused at
   [frac] of the horizon and continued; and restored from the pause-point
   checkpoint in a fresh heap. All three must agree to the byte. *)
let three_way ?shards w ~frac =
  let straight =
    let h = Run.prepare ?shards w in
    Cloud.run h.Run.cloud ~until:h.Run.until;
    result_bytes (h.Run.finish ())
  in
  let h = Run.prepare ?shards w in
  let mid = Time.scale h.Run.until frac in
  Cloud.run h.Run.cloud ~until:mid;
  let image = Cloud.checkpoint h.Run.cloud ~extra:h in
  Cloud.run h.Run.cloud ~until:h.Run.until;
  let paused = result_bytes (h.Run.finish ()) in
  let _cloud, (h' : Run.handle) = restore_exn image in
  Cloud.run h'.Run.cloud ~until:h'.Run.until;
  let restored = result_bytes (h'.Run.finish ()) in
  (straight, paused, restored)

let prop_restore_roundtrip =
  QCheck.Test.make ~count:5
    ~name:"restore-then-run = run-straight-through (single shard)"
    QCheck.(triple int64 (float_range 0.2 0.8) bool)
    (fun (seed, frac, with_fault) ->
      let w = small_workload () in
      let w =
        {
          w with
          Dsl.seed;
          faults = (if with_fault then [ slowdown ~at_ms:150 ~factor:2. ] else []);
        }
      in
      let straight, paused, restored = three_way w ~frac in
      straight = paused && straight = restored)

let contract_bytes metrics =
  Export.to_json_string (Snapshot.without_sim metrics)

let datacenter_workload () =
  let w = small_workload () in
  {
    w with
    Dsl.duration = Time.ms 300;
    topology =
      Some
        {
          Dsl.hosts = 12;
          shards = 1;
          east_west_rate_per_s = 40.;
          east_west_stride = 1;
          partition = Dsl.Contiguous;
          replica_link_us = None;
          quantum_us = None;
        };
  }

(* The sharded conductor (engines, cross-shard inboxes, lookahead cursor)
   checkpoints too: a 4-shard run restored mid-window finishes exactly like
   the uninterrupted one, and still matches the 1-shard run outside
   [sim.*]. *)
let test_sharded_roundtrip () =
  let w = datacenter_workload () in
  let straight4, paused4, restored4 = three_way ~shards:4 w ~frac:0.5 in
  Alcotest.(check string) "pause/continue, 4 shards" straight4 paused4;
  Alcotest.(check string) "restore-then-run, 4 shards" straight4 restored4;
  let h1 = Run.prepare ~shards:1 w in
  Cloud.run h1.Run.cloud ~until:h1.Run.until;
  let r1 = h1.Run.finish () in
  let _cloud, (h4 : Run.handle) =
    let h = Run.prepare ~shards:4 w in
    let mid = Time.scale h.Run.until 0.5 in
    Cloud.run h.Run.cloud ~until:mid;
    restore_exn (Cloud.checkpoint h.Run.cloud ~extra:h)
  in
  Cloud.run h4.Run.cloud ~until:h4.Run.until;
  let r4 = h4.Run.finish () in
  Alcotest.(check string) "restored 4-shard = straight 1-shard (non-sim.*)"
    (contract_bytes r1.Run.metrics)
    (contract_bytes r4.Run.metrics)

(* Payloads are a closed variant, so a plain Marshal round-trip restores
   every constructor, nested ones included, with no repair step. [shape]
   names each constructor down to the innermost message; being exhaustive,
   it breaks the build when a constructor is added without a case here. *)
let rec shape : Sw_net.Packet.payload -> string = function
  | Empty -> "Empty"
  | Guest_bound { inner; _ } -> "Guest_bound/" ^ shape inner.payload
  | Proposal _ -> "Proposal"
  | Egress_tunnel { inner; _ } -> "Egress_tunnel/" ^ shape inner.payload
  | Epoch_report _ -> "Epoch_report"
  | Background _ -> "Background"
  | Mcast_data { inner; _ } -> "Mcast_data/" ^ shape inner
  | Mcast_nak _ -> "Mcast_nak"
  | Mcast_heartbeat _ -> "Mcast_heartbeat"
  | Vmm_alive _ -> "Vmm_alive"
  | Tcp { kind; msg_end; _ } ->
      let kind =
        match kind with
        | Syn -> "Syn" | Synack -> "Synack" | Data -> "Data"
        | Ack -> "Ack" | Fin -> "Fin" | Finack -> "Finack"
      in
      "Tcp." ^ kind ^ Option.fold ~none:"" ~some:(fun m -> "/" ^ msg_shape m) msg_end
  | App m -> "App/" ^ msg_shape m

and msg_shape : Sw_net.Msg.t -> string = function
  | Http_get _ -> "Http_get"
  | Http_response _ -> "Http_response"
  | Nfs_call _ -> "Nfs_call"
  | Nfs_reply _ -> "Nfs_reply"
  | Udp_request _ -> "Udp_request"
  | Udp_data _ -> "Udp_data"
  | Udp_nak _ -> "Udp_nak"
  | Probe_ping _ -> "Probe_ping"
  | Probe_echo _ -> "Probe_echo"
  | Stream_data _ -> "Stream_data"
  | Job_done _ -> "Job_done"
  | Wl_get _ -> "Wl_get"
  | Wl_resp _ -> "Wl_resp"

let test_payloads_survive_marshal () =
  let module P = Sw_net.Packet in
  let module M = Sw_net.Msg in
  let packet payload =
    P.make ~src:(Sw_net.Address.Host 1) ~dst:(Sw_net.Address.Vm 2) ~size:100
      ~seq:4 payload
  in
  let seg ?msg_end kind =
    P.Tcp { M.conn = 1; kind; seq = 0; len = 10; ack = 0; msg_end }
  in
  let msgs =
    [
      M.Http_get { file = 1; size = 2 };
      Http_response { file = 1 };
      Nfs_reply { xid = 3; op = Write };
      Udp_request { file = 1; size = 2 };
      Udp_data { file = 1; offset = 0; len = 2; last = true };
      Udp_nak { file = 1; from_offset = 0 };
      Probe_ping 1;
      Probe_echo 2;
      Stream_data 3;
      Job_done { name = "ferret" };
      Wl_get { cls = 0; key = 1; seq = 2; resp_bytes = 3; cached = true };
      Wl_resp { seq = 5; tier = -1 };
    ]
    @ List.map (fun (op, _) -> M.Nfs_call { xid = 3; op }) Sw_apps.Nfs.paper_mix
  in
  let cases =
    [
      P.Empty;
      Background 7;
      Proposal { vm = 1; ingress_seq = 2; proposer = 0; virt = Time.ms 3 };
      Epoch_report { vm = 1; replica = 2; epoch = 3; d = Time.ms 4; r = Time.ms 5 };
      Mcast_nak { group = 1; origin = Sw_net.Address.Vmm 0; from_mseq = 2; to_mseq = 3 };
      Mcast_heartbeat { group = 1; last_mseq = 2 };
      Vmm_alive { vm = 1; replica = 2 };
    ]
    @ List.map seg [ M.Syn; Synack; Data; Ack; Fin; Finack ]
    @ List.concat_map
        (fun m ->
          [
            P.App m;
            seg ~msg_end:m Data;
            Mcast_data
              {
                group = 1;
                mseq = 2;
                inner =
                  Guest_bound
                    { vm = 1; ingress_seq = 2; inner = packet (seg ~msg_end:m Data) };
              };
            Egress_tunnel { vm = 1; replica = 0; inner = packet (App m) };
          ])
        msgs
  in
  List.iter
    (fun p ->
      let back : P.payload =
        Marshal.from_string (Marshal.to_string p [ Marshal.Closures ]) 0
      in
      Alcotest.(check string) "same constructors" (shape p) (shape back);
      if back <> p then Alcotest.failf "%s: restored value differs" (shape p))
    cases

(* --- image framing --------------------------------------------------------- *)

let meta ~index ~sim_ns =
  {
    Image.scenario = "test-scenario";
    seed = 7L;
    shards = 1;
    index;
    sim_ns;
    fingerprint = "fp";
    payload_digest = Digest.string "";
    payload_len = 0;
  }

let write_exn path ~payload =
  match Image.write ~path (meta ~index:0 ~sim_ns:5L) ~payload with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write failed: %s" (Image.error_to_string e)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let expect_read_error path check =
  match Image.read ~path with
  | Ok _ -> Alcotest.failf "%s unexpectedly read back" path
  | Error e ->
      if not (check e) then
        Alcotest.failf "%s: wrong error: %s" path (Image.error_to_string e)

let test_image_roundtrip () =
  let payload = String.init 4096 (fun i -> Char.chr (i * 31 mod 256)) in
  write_exn "img_ok.img" ~payload;
  match Image.read ~path:"img_ok.img" with
  | Error e -> Alcotest.failf "read failed: %s" (Image.error_to_string e)
  | Ok (m, p) ->
      Alcotest.(check string) "payload" payload p;
      Alcotest.(check int) "payload_len" (String.length payload) m.Image.payload_len;
      Alcotest.(check string) "scenario" "test-scenario" m.Image.scenario

let test_image_truncated () =
  let payload = String.make 2048 'x' in
  write_exn "img_trunc.img" ~payload;
  let bytes = read_file "img_trunc.img" in
  (* Cut inside the payload, inside the header, and inside the preamble. *)
  List.iter
    (fun keep ->
      write_file "img_trunc.img" (String.sub bytes 0 keep);
      expect_read_error "img_trunc.img" (function
        | Image.Truncated -> true
        | _ -> false))
    [ String.length bytes - 100; 40; 3 ];
  (* Cloud.restore answers short or cut bytes with a typed error. *)
  let image = Cloud.checkpoint (Cloud.create ~machines:3 ()) ~extra:() in
  List.iter
    (fun bytes ->
      match (Cloud.restore bytes : (Cloud.t * unit, _) result) with
      | Error (Cloud.Incompatible_image _) -> ()
      | Ok _ -> Alcotest.fail "restored a truncated image")
    [
      "abc";
      String.sub image 0 (String.length image / 2);
      String.init 64 (fun i -> Char.chr (i * 37 mod 256));
    ]

let test_image_corrupt () =
  let payload = String.make 2048 'x' in
  write_exn "img_corrupt.img" ~payload;
  let bytes = Bytes.of_string (read_file "img_corrupt.img") in
  let last = Bytes.length bytes - 1 in
  Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 1));
  write_file "img_corrupt.img" (Bytes.to_string bytes);
  expect_read_error "img_corrupt.img" (function
    | Image.Corrupt _ -> true
    | _ -> false)

let test_image_version_and_magic () =
  write_exn "img_vers.img" ~payload:"p";
  let bytes = read_file "img_vers.img" in
  (* Bytes 6-7 are the two ASCII version digits. *)
  let bumped = Bytes.of_string bytes in
  Bytes.blit_string "99" 0 bumped 6 2;
  write_file "img_vers.img" (Bytes.to_string bumped);
  expect_read_error "img_vers.img" (function
    | Image.Version_mismatch { found = 99; expected = 1 } -> true
    | _ -> false);
  write_file "img_vers.img" ("XXXXXX" ^ String.sub bytes 6 (String.length bytes - 6));
  expect_read_error "img_vers.img" (function
    | Image.Bad_magic -> true
    | _ -> false)

(* A crash mid-write must never cost the timeline: writes go to a temp
   file first, and recovery walks past any half-written newer image. *)
let test_store_crash_mid_write () =
  let dir = "store_crash" in
  (match Store.ensure_dir dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ensure_dir: %s" (Image.error_to_string e));
  let payload = String.make 512 'a' in
  (match
     Image.write ~path:(Store.path dir ~index:0) (meta ~index:0 ~sim_ns:5L)
       ~payload
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %s" (Image.error_to_string e));
  (* Simulate a crash mid-write of the next image: valid preamble, cut
     body. *)
  let good = read_file (Store.path dir ~index:0) in
  write_file (Store.path dir ~index:1)
    (String.sub good 0 (String.length good - 200));
  (* And a stray temp file from the same crash. *)
  write_file (Store.path dir ~index:2 ^ ".tmp") "half";
  match Store.latest_valid dir with
  | None -> Alcotest.fail "prior image not recovered"
  | Some (entry, recovered, rejected) ->
      Alcotest.(check int) "recovered index" 0 entry.Store.index;
      Alcotest.(check string) "recovered payload" payload recovered;
      Alcotest.(check int) "newer image rejected" 1 (List.length rejected)

(* --- soak ------------------------------------------------------------------ *)

let soak_scenario ?(faults = []) ~name ~seed () =
  let w = small_workload () in
  { Dsl.name; kind = Dsl.Workload { w with Dsl.seed; faults } }

let run_soak ?kill_after ~dir scenario =
  Soak.run ~scenario ~dir ~every:(Time.ms 100) ?kill_after ()

let soak_exn ?kill_after ~dir scenario =
  match run_soak ?kill_after ~dir scenario with
  | Ok o -> o
  | Error e -> Alcotest.failf "soak: %s" (Format.asprintf "%a" Soak.pp_error e)

(* Kill the soak after every single checkpoint; the chain of resumed runs
   must end with a report byte-identical to one uninterrupted run. *)
let test_soak_survives_kills () =
  let scenario = soak_scenario ~name:"soak-kill" ~seed:11L () in
  let uninterrupted = soak_exn ~dir:"soak_straight" scenario in
  let rec crash_loop n =
    if n > 50 then Alcotest.fail "soak never finished"
    else
      match run_soak ~kill_after:1 ~dir:"soak_crashed" scenario with
      | exception Soak.Killed _ -> crash_loop (n + 1)
      | Ok o -> o
      | Error e ->
          Alcotest.failf "soak: %s" (Format.asprintf "%a" Soak.pp_error e)
  in
  let survived = crash_loop 0 in
  Alcotest.(check bool) "actually resumed" true
    (survived.Soak.resumed_from <> None);
  Alcotest.(check string) "report bytes"
    (result_bytes uninterrupted.Soak.result)
    (result_bytes survived.Soak.result);
  Alcotest.(check int) "same horizon" uninterrupted.Soak.sim_ns
    survived.Soak.sim_ns

(* --- warm-start cache ------------------------------------------------------ *)

(* First use builds and checkpoints the prepared t=0 cloud; the second
   restores it. Both runs — and a cold build that never touched the cache
   — must produce the same report bytes, and a corrupted image silently
   falls back to a rebuild. *)
let test_warm_build_then_restore () =
  let w = datacenter_workload () in
  let dir = "warm_cache" in
  let key = "warm-test:shards=2" in
  let builds = ref 0 in
  let build () =
    incr builds;
    Run.prepare ~shards:2 w
  in
  let go () =
    match Sw_ckpt.Warm.load_or_build ~dir ~key ~seed:w.Dsl.seed ~shards:2 ~build with
    | Error e -> Alcotest.failf "warm: %s" e
    | Ok (h, status) ->
        Cloud.run h.Run.cloud ~until:h.Run.until;
        (contract_bytes (h.Run.finish ()).Run.metrics, status)
  in
  let bytes_built, s1 = go () in
  let bytes_restored, s2 = go () in
  Alcotest.(check bool) "first use builds" true (s1 = Sw_ckpt.Warm.Built);
  Alcotest.(check bool) "second use restores" true (s2 = Sw_ckpt.Warm.Restored);
  Alcotest.(check int) "built exactly once" 1 !builds;
  let cold =
    let h = Run.prepare ~shards:2 w in
    Cloud.run h.Run.cloud ~until:h.Run.until;
    contract_bytes (h.Run.finish ()).Run.metrics
  in
  Alcotest.(check string) "built-and-run = cold" cold bytes_built;
  Alcotest.(check string) "restored-and-run = cold" cold bytes_restored;
  (* A flipped bit in the image must cost a rebuild, never a wrong run. *)
  let path = Sw_ckpt.Warm.image_path ~dir ~key in
  let img = read_file path in
  write_file path (String.sub img 0 (String.length img - 64));
  let bytes_again, s3 = go () in
  Alcotest.(check bool) "corrupt image rebuilt" true (s3 = Sw_ckpt.Warm.Built);
  Alcotest.(check int) "rebuild counted" 2 !builds;
  Alcotest.(check string) "rebuilt run = cold" cold bytes_again

(* Resuming over a directory seeded by a different scenario is refused —
   never silently replayed. *)
let test_soak_wrong_scenario () =
  let a = soak_scenario ~name:"soak-owner" ~seed:1L () in
  let b = soak_scenario ~name:"soak-owner" ~seed:2L () in
  ignore (soak_exn ~dir:"soak_owned" a);
  match run_soak ~dir:"soak_owned" b with
  | Error (Soak.Wrong_scenario _) -> ()
  | Ok _ -> Alcotest.fail "foreign scenario resumed"
  | Error e ->
      Alcotest.failf "wrong error: %s" (Format.asprintf "%a" Soak.pp_error e)

(* A corrupt newest image costs one interval, not the run: the soak falls
   back to the previous valid image and still finishes identically. *)
let test_soak_falls_back_past_corrupt_image () =
  let scenario = soak_scenario ~name:"soak-corrupt" ~seed:3L () in
  let reference = soak_exn ~dir:"soak_ref" scenario in
  (match run_soak ~kill_after:3 ~dir:"soak_cut" scenario with
  | exception Soak.Killed _ -> ()
  | _ -> Alcotest.fail "kill_after did not fire");
  let newest = Store.path "soak_cut" ~index:2 in
  let bytes = read_file newest in
  write_file newest (String.sub bytes 0 (String.length bytes - 64));
  let resumed = soak_exn ~dir:"soak_cut" scenario in
  Alcotest.(check (option int)) "resumed from the previous image" (Some 1)
    resumed.Soak.resumed_from;
  Alcotest.(check int) "the corrupt image was reported" 1
    resumed.Soak.images_skipped;
  Alcotest.(check string) "report bytes"
    (result_bytes reference.Soak.result)
    (result_bytes resumed.Soak.result)

(* --- bisect ---------------------------------------------------------------- *)

(* Two runs identical until t=250ms, where one side's planted fault is a
   no-op (factor 1.0) and the other's a real slowdown: bisection must name
   the first post-fault checkpoint, the metrics that moved, and a first
   divergent trace event inside the window. *)
let test_bisect_finds_planted_divergence () =
  let mk factor name =
    soak_scenario ~name ~seed:5L
      ~faults:[ slowdown ~at_ms:250 ~factor ] ()
  in
  ignore (soak_exn ~dir:"bisect_a" (mk 1.0 "bisect"));
  ignore (soak_exn ~dir:"bisect_b" (mk 2.0 "bisect"));
  match Bisect.first_divergence ~a:"bisect_a" ~b:"bisect_b" with
  | Error e ->
      Alcotest.failf "bisect: %s" (Format.asprintf "%a" Bisect.pp_error e)
  | Ok d ->
      (* Grid every 100ms; the fault lands at 250ms, so checkpoints 0-1
         agree and #2 (t=300ms) is the first divergent one. *)
      Alcotest.(check int) "first divergent checkpoint" 2 d.Bisect.index;
      Alcotest.(check int) "at the grid instant" (Time.ms 300) d.Bisect.sim_ns;
      Alcotest.(check (option int)) "last agreement" (Some 1)
        d.Bisect.last_common;
      Alcotest.(check bool) "metrics moved" true (d.Bisect.metric_diff <> []);
      (match d.Bisect.first_event with
      | None -> Alcotest.fail "divergent window was not replayed"
      | Some (_, ea, eb) ->
          Alcotest.(check bool) "both sides produced an event" true
            (ea <> None && eb <> None));
      (* The printed report renders without raising. *)
      ignore (Format.asprintf "%a" Bisect.pp_divergence d)

let test_bisect_agreement_is_not_divergence () =
  let scenario = soak_scenario ~name:"bisect-same" ~seed:9L () in
  ignore (soak_exn ~dir:"bisect_same_a" scenario);
  ignore (soak_exn ~dir:"bisect_same_b" scenario);
  match Bisect.first_divergence ~a:"bisect_same_a" ~b:"bisect_same_b" with
  | Error (Bisect.No_divergence { compared }) ->
      Alcotest.(check bool) "compared several" true (compared > 2)
  | Ok _ -> Alcotest.fail "identical runs reported divergent"
  | Error e ->
      Alcotest.failf "bisect: %s" (Format.asprintf "%a" Bisect.pp_error e)

(* --- satellites ------------------------------------------------------------ *)

let test_prng_state_roundtrip () =
  let g = Prng.create 42L in
  for _ = 1 to 17 do
    ignore (Prng.next_int64 g)
  done;
  let st = Prng.export g in
  let ahead = List.init 5 (fun _ -> Prng.next_int64 g) in
  let replayed =
    let g' = Prng.import st in
    List.init 5 (fun _ -> Prng.next_int64 g')
  in
  Alcotest.(check (list int64)) "import replays the stream" ahead replayed;
  let text = Prng.state_to_string st in
  (match Prng.state_of_string text with
  | Error e -> Alcotest.failf "state_of_string: %s" e
  | Ok st' ->
      Alcotest.(check string) "textual state round-trips" text
        (Prng.state_to_string st'));
  match Prng.state_of_string "not-a-state" with
  | Ok _ -> Alcotest.fail "garbage state accepted"
  | Error _ -> ()

let test_trace_dropped_mirror () =
  let reg = Registry.create () in
  let tr = Trace.create ~capacity:4 ~metrics:reg () in
  Trace.enable tr;
  for i = 1 to 10 do
    Trace.emit tr ~at_ns:i
      (Event.Span_begin { name = "m" })
  done;
  let mirror () = Snapshot.counter (Registry.snapshot reg) "trace.dropped" in
  Alcotest.(check int) "ring counted drops" 6 (Trace.dropped tr);
  Alcotest.(check int) "registry mirror agrees" 6 (mirror ());
  Trace.clear tr;
  Alcotest.(check int) "clear zeroes the ring" 0 (Trace.dropped tr);
  Alcotest.(check int) "clear zeroes the mirror" 0 (mirror ())

let () =
  Alcotest.run "sw_ckpt"
    [
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest prop_restore_roundtrip;
          Alcotest.test_case "sharded restore (4 shards, vs 1)" `Slow
            test_sharded_roundtrip;
          Alcotest.test_case "payloads survive Marshal" `Quick
            test_payloads_survive_marshal;
        ] );
      ( "image",
        [
          Alcotest.test_case "write/read round-trip" `Quick test_image_roundtrip;
          Alcotest.test_case "truncation detected" `Quick test_image_truncated;
          Alcotest.test_case "corruption detected" `Quick test_image_corrupt;
          Alcotest.test_case "version and magic checked" `Quick
            test_image_version_and_magic;
          Alcotest.test_case "crash mid-write leaves prior image valid" `Quick
            test_store_crash_mid_write;
        ] );
      ( "warm",
        [
          Alcotest.test_case "build, restore, corrupt fallback" `Slow
            test_warm_build_then_restore;
        ] );
      ( "soak",
        [
          Alcotest.test_case "survives a kill after every checkpoint" `Slow
            test_soak_survives_kills;
          Alcotest.test_case "refuses a foreign scenario's timeline" `Slow
            test_soak_wrong_scenario;
          Alcotest.test_case "falls back past a corrupt newest image" `Slow
            test_soak_falls_back_past_corrupt_image;
        ] );
      ( "bisect",
        [
          Alcotest.test_case "finds a planted divergence" `Slow
            test_bisect_finds_planted_divergence;
          Alcotest.test_case "agreement is not divergence" `Slow
            test_bisect_agreement_is_not_divergence;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "prng stream state round-trips" `Quick
            test_prng_state_roundtrip;
          Alcotest.test_case "trace dropped-counter mirror" `Quick
            test_trace_dropped_mirror;
        ] );
    ]
