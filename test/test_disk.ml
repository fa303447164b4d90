(* Tests for the disk model: service times, FIFO queueing, sequential
   access and accounting. *)

module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Disk = Sw_disk.Disk

let no_seek =
  {
    Disk.max_seek = Time.zero;
    max_rotation = Time.zero;
    transfer_bps = 1_000_000;
    sequential_seek_fraction = 1.0;
  }

let test_transfer_time () =
  let engine = Engine.create () in
  let disk = Disk.create engine ~params:no_seek () in
  let finished = ref Time.zero in
  (* 1000 bytes at 1 MB/s = 1 ms. *)
  Disk.submit disk ~vm:0 ~kind:Disk.Read ~bytes:1000 ~sequential:false (fun () ->
      finished := Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "pure transfer" (Time.ms 1) !finished

let test_fifo_queueing () =
  let engine = Engine.create () in
  let disk = Disk.create engine ~params:no_seek () in
  let finishes = ref [] in
  for i = 1 to 3 do
    Disk.submit disk ~vm:i ~kind:Disk.Read ~bytes:1000 ~sequential:false (fun () ->
        finishes := (i, Engine.now engine) :: !finishes)
  done;
  Engine.run engine;
  Alcotest.(check (list (pair int int)))
    "requests queue one at a time"
    [ (1, Time.ms 1); (2, Time.ms 2); (3, Time.ms 3) ]
    (List.rev !finishes)

let test_sequential_cheaper () =
  let engine = Engine.create () in
  let disk = Disk.create engine () in
  (* Total elapsed ms of the sequential and the random requests; each kind
     is half of the 400. *)
  let seq = ref 0. and random = ref 0. in
  let t0 = ref Time.zero in
  let rec submit i =
    if i < 400 then begin
      t0 := Engine.now engine;
      let sequential = i mod 2 = 0 in
      Disk.submit disk ~vm:0 ~kind:Disk.Read ~bytes:4096 ~sequential (fun () ->
          let elapsed = Time.to_float_ms (Time.sub (Engine.now engine) !t0) in
          let sum = if sequential then seq else random in
          sum := !sum +. elapsed;
          submit (i + 1))
    end
  in
  submit 0;
  Engine.run engine;
  if !seq >= !random then
    Alcotest.failf "sequential (%.3f ms) should beat random (%.3f ms)"
      (!seq /. 200.) (!random /. 200.)

let test_accounting () =
  let engine = Engine.create () in
  let disk = Disk.create engine ~params:no_seek () in
  Disk.submit disk ~vm:3 ~kind:Disk.Write ~bytes:500 ~sequential:true (fun () -> ());
  Disk.submit disk ~vm:3 ~kind:Disk.Read ~bytes:500 ~sequential:true (fun () -> ());
  Disk.submit disk ~vm:4 ~kind:Disk.Read ~bytes:500 ~sequential:true (fun () -> ());
  Engine.run engine;
  let snap = Sw_obs.Registry.snapshot (Engine.metrics engine) in
  Alcotest.(check int) "completed" 3 (Metric.counter snap "disk.completed");
  Alcotest.(check int) "per-vm" 2 (Metric.counter snap "disk.vm3.completed");
  Alcotest.(check int) "busy time" (Time.us 1500) (Metric.counter snap "disk.busy_ns");
  Alcotest.(check int) "max service" (Time.us 500)
    (Metric.histogram snap "disk.service_ns").max

let test_rejects_zero_bytes () =
  let engine = Engine.create () in
  let disk = Disk.create engine () in
  Alcotest.check_raises "zero bytes" (Invalid_argument "x") (fun () ->
      try Disk.submit disk ~vm:0 ~kind:Disk.Read ~bytes:0 ~sequential:false (fun () -> ())
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let () =
  Alcotest.run "sw_disk"
    [
      ( "disk",
        [
          Alcotest.test_case "transfer time" `Quick test_transfer_time;
          Alcotest.test_case "fifo queueing" `Quick test_fifo_queueing;
          Alcotest.test_case "sequential cheaper" `Quick test_sequential_cheaper;
          Alcotest.test_case "accounting" `Quick test_accounting;
          Alcotest.test_case "rejects zero bytes" `Quick test_rejects_zero_bytes;
        ] );
    ]
