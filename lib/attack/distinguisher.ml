module Dist = Sw_stats.Dist
module Chi_square = Sw_stats.Chi_square

let analytic ~null ~alt ~confidence =
  let edges = Chi_square.equiprobable_edges null ~bins:10 in
  let null_probs = Chi_square.bin_probs ~edges null.Dist.cdf in
  let alt_probs = Chi_square.bin_probs ~edges alt.Dist.cdf in
  Chi_square.observations_needed ~null_probs ~alt_probs ~confidence
