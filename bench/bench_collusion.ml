(* Sec. IX: collaborating attacker VMs. A colluder loads one of the attacker
   replicas' machines to marginalise it from the median; increasing the
   replica count from 3 to 5 blunts the technique. The quick form runs each
   simulation for 2 simulated seconds instead of 25. *)

open Sw_experiments

let run ~quick () =
  Tables.section "Sec. IX — collaborating attacker VMs (simulated)";
  let duration = Sw_sim.Time.s (if quick then 2 else 25) in
  let rows = Sw_attack.Collusion.table ~duration in
  Tables.header ~width:12 [ "conf"; "r=3"; "r=3+col"; "r=5+col" ];
  (match rows with
  | [ a; b; c ] ->
      List.iteri
        (fun i (conf, obs_a) ->
          let _, obs_b = List.nth b.Sw_attack.Collusion.observations i in
          let _, obs_c = List.nth c.Sw_attack.Collusion.observations i in
          Tables.row ~width:12
            [ Tables.f2 conf; Tables.f0 obs_a; Tables.f0 obs_b; Tables.f0 obs_c ])
        a.Sw_attack.Collusion.observations
  | _ -> print_endline "unexpected collusion table shape");
  Tables.subsection
    "Marginalisation: loaded replica's share of adopted medians (1/m if unloaded)";
  List.iter
    (fun (r : Sw_attack.Collusion.row) ->
      Printf.printf "  %-42s %.3f (uniform would be %.3f)
"
        r.Sw_attack.Collusion.label r.Sw_attack.Collusion.loaded_replica_share
        (1. /. float_of_int r.Sw_attack.Collusion.replicas))
    rows
