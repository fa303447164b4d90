type row = {
  label : string;
  replicas : int;
  colluder : bool;
  observations : (float * float) list;
  divergences : int;
  loaded_replica_share : float;
}

let table ~duration =
  let base = { Scenario.default with Scenario.duration; seed = 0xC0_11D3L } in
  let detect spec =
    let null = Scenario.run { spec with Scenario.victim = false } in
    let alt = Scenario.run { spec with Scenario.victim = true } in
    let chi = Sw_leak.Detector.chi_square in
    let observations =
      List.map
        (fun c ->
          ( c,
            chi.Sw_leak.Detector.observations_needed
              ~null:null.Scenario.attacker_inter_delivery_ms
              ~alt:alt.Scenario.attacker_inter_delivery_ms ~confidence:c ))
        Sw_leak.Detector.confidence_grid
    in
    let share =
      match alt.Scenario.median_share with [||] -> nan | a -> a.(0)
    in
    (observations, alt.Scenario.divergences, share)
  in
  List.map
    (fun (label, replicas, colluder) ->
      let spec = Scenario.with_replicas { base with Scenario.colluder } replicas in
      let observations, divergences, loaded_replica_share = detect spec in
      { label; replicas; colluder; observations; divergences; loaded_replica_share })
    [
      ("3 replicas, no colluder", 3, false);
      ("3 replicas, colluder on shared machine", 3, true);
      ("5 replicas, colluder on shared machine", 5, true);
    ]
