(* File-download comparison (the paper's Fig. 5 in miniature): retrieve files
   over HTTP/TCP and over UDP with NAK-based reliability, from a StopWatch
   cloud and from unmodified Xen.

   The point the paper makes: StopWatch's cost is dominated by inbound
   packets (TCP ACKs); a transport that minimises client-to-server packets
   (NAK-based UDP) recovers almost all of it.

   Run with: dune exec examples/file_download.exe *)

open Sw_experiments

let () =
  print_endline "File retrieval latency (ms), 100 KB and 1 MB:\n";
  Printf.printf "%-10s %-6s %12s %12s %8s\n" "protocol" "size" "baseline" "stopwatch"
    "ratio";
  List.iter
    (fun (protocol, label) ->
      List.iter
        (fun size ->
          let b =
            File_transfer.run ~protocol ~baseline:true ~size_bytes:size ~runs:2 ()
          in
          let s =
            File_transfer.run ~protocol ~baseline:false ~size_bytes:size ~runs:2 ()
          in
          Printf.printf "%-10s %-6s %12.1f %12.1f %7.2fx\n" label
            (Printf.sprintf "%dKB" (size / 1024))
            b.File_transfer.elapsed_ms s.File_transfer.elapsed_ms
            (s.File_transfer.elapsed_ms /. b.File_transfer.elapsed_ms))
        [ 102_400; 1_048_576 ])
    [ (File_transfer.Http, "HTTP"); (File_transfer.Udp, "UDP+NAK") ];
  print_endline
    "\nHTTP suffers ~2.5-3x: every client ACK must go through ingress\n\
     replication and the three VMMs' median agreement before the server\n\
     guest sees it. UDP+NAK sends almost nothing inbound and stays near 1x."
