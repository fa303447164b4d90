(* Tests for the disk model (service times, FIFO queueing) and disk images
   (replication semantics). *)

module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Disk = Sw_disk.Disk
module Image = Sw_disk.Image

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
  let seq = Sw_sim.Summary.create () and random = Sw_sim.Summary.create () in
  let t0 = ref Time.zero in
  let rec submit i =
    if i < 400 then begin
      t0 := Engine.now engine;
      let sequential = i mod 2 = 0 in
      Disk.submit disk ~vm:0 ~kind:Disk.Read ~bytes:4096 ~sequential (fun () ->
          let elapsed = Time.to_float_ms (Time.sub (Engine.now engine) !t0) in
          Sw_sim.Summary.add (if sequential then seq else random) elapsed;
          submit (i + 1))
    end
  in
  submit 0;
  Engine.run engine;
  if Sw_sim.Summary.mean seq >= Sw_sim.Summary.mean random then
    Alcotest.failf "sequential (%.3f ms) should beat random (%.3f ms)"
      (Sw_sim.Summary.mean seq) (Sw_sim.Summary.mean random)

let test_accounting () =
  let engine = Engine.create () in
  let disk = Disk.create engine ~params:no_seek () in
  Disk.submit disk ~vm:3 ~kind:Disk.Write ~bytes:500 ~sequential:true (fun () -> ());
  Disk.submit disk ~vm:3 ~kind:Disk.Read ~bytes:500 ~sequential:true (fun () -> ());
  Disk.submit disk ~vm:4 ~kind:Disk.Read ~bytes:500 ~sequential:true (fun () -> ());
  Engine.run engine;
  Alcotest.(check int) "completed" 3 (Disk.completed disk);
  Alcotest.(check int) "per-vm" 2 (Disk.completed_for disk ~vm:3);
  Alcotest.(check int) "busy time" (Time.us 1500) (Disk.busy_time disk);
  Alcotest.(check int) "max service" (Time.us 500) (Disk.max_service_time disk)

let test_rejects_zero_bytes () =
  let engine = Engine.create () in
  let disk = Disk.create engine () in
  Alcotest.check_raises "zero bytes" (Invalid_argument "x") (fun () ->
      try Disk.submit disk ~vm:0 ~kind:Disk.Read ~bytes:0 ~sequential:false (fun () -> ())
      with Invalid_argument _ -> raise (Invalid_argument "x"))

(* --- Image ---------------------------------------------------------------- *)

let test_image_rw () =
  let img = Image.create ~blocks:8 in
  Alcotest.(check int) "blocks" 8 (Image.blocks img);
  Alcotest.(check int) "zeroed" 0 (Image.read img 3);
  Image.write img 3 42;
  Alcotest.(check int) "written" 42 (Image.read img 3)

let test_image_clone_is_deep () =
  let img = Image.create ~blocks:4 in
  Image.write img 0 7;
  let copy = Image.clone img in
  Alcotest.(check bool) "equal after clone" true (Image.equal img copy);
  Image.write copy 0 9;
  Alcotest.(check int) "original untouched" 7 (Image.read img 0);
  Alcotest.(check bool) "diverged" false (Image.equal img copy)

let test_image_digest () =
  let a = Image.create ~blocks:16 and b = Image.create ~blocks:16 in
  Image.write a 5 1;
  Image.write b 5 1;
  Alcotest.(check int) "same content same digest" (Image.digest a) (Image.digest b);
  Image.write b 6 1;
  Alcotest.(check bool) "different content" true (Image.digest a <> Image.digest b)

let test_image_bounds () =
  let img = Image.create ~blocks:2 in
  Alcotest.check_raises "oob" (Invalid_argument "x") (fun () ->
      try ignore (Image.read img 2) with
      | Invalid_argument _ -> raise (Invalid_argument "x"))

let prop_clone_equal =
  QCheck.Test.make ~name:"clone equals source for any writes" ~count:100
    QCheck.(list (pair (int_bound 31) (int_bound 1000)))
    (fun writes ->
      let img = Image.create ~blocks:32 in
      List.iter (fun (i, v) -> Image.write img i v) writes;
      let copy = Image.clone img in
      Image.equal img copy && Image.digest img = Image.digest copy)

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
      ( "image",
        [
          Alcotest.test_case "read/write" `Quick test_image_rw;
          Alcotest.test_case "clone is deep" `Quick test_image_clone_is_deep;
          Alcotest.test_case "digest" `Quick test_image_digest;
          Alcotest.test_case "bounds" `Quick test_image_bounds;
          QCheck_alcotest.to_alcotest prop_clone_equal;
        ] );
    ]
