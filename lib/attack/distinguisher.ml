module Dist = Sw_stats.Dist
module Chi_square = Sw_stats.Chi_square

let analytic ~null ~alt ?(bins = 10) ~confidence () =
  let edges = Chi_square.equiprobable_edges null ~bins in
  let null_probs = Chi_square.bin_probs ~edges null.Dist.cdf in
  let alt_probs = Chi_square.bin_probs ~edges alt.Dist.cdf in
  Chi_square.observations_needed ~null_probs ~alt_probs ~confidence

let sweep_analytic ~null ~alt ?bins () =
  List.map
    (fun c -> (c, analytic ~null ~alt ?bins ~confidence:c ()))
    Sw_leak.Detector.confidence_grid
