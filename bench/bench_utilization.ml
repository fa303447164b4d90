(* Sec. VIII under load: fill a 9-machine cloud toward the Theorem 2 bound
   (c = 4 -> 12 guest VMs, 36 replica slots) with HTTP-serving guests and
   measure what the growing coresidency costs. Isolation on the same
   hardware would cap out at 9 VMs. *)

open Sw_experiments

let run () =
  Tables.section "Utilisation under load (9 machines, capacity 4, HTTP 100 KB)";
  Tables.header ~width:12
    [ "VMs"; "replicas"; "downloads"; "mean ms"; "p95 ms"; "div" ];
  List.iter
    (fun vms ->
      let o =
        Utilization.run ~machines:9 ~capacity:4 ~vms ~file_bytes:102_400
          ~duration:(Sw_sim.Time.s 10)
      in
      Tables.row ~width:12
        [
          string_of_int o.Utilization.vms;
          string_of_int (3 * o.Utilization.vms);
          string_of_int o.Utilization.completed_downloads;
          Tables.f1 o.Utilization.mean_latency_ms;
          Tables.f1 o.Utilization.p95_latency_ms;
          string_of_int o.Utilization.divergences;
        ])
    [ 3; 6; 9; 12 ];
  print_endline
    "\n(12 VMs on 9 machines is beyond one-VM-per-machine isolation; Theorem 2\n\
     keeps every pair of VMs coresident on at most one machine.)"
