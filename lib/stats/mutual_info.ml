type t = {
  mi_bits : float;
  plugin_bits : float;
  plugin_nats : float;
  g_stat : float;
  df : int;
  p_value : float;
  n : int;
  bins : int;
}

(* Plugin MI of a contingency table (nats), plus the Miller–Madow corrected
   estimate: bias of the plugin is ~ (m_xy - m_x - m_y + 1) / 2N, where the
   m's count non-empty cells / rows / columns. *)
let of_counts ~bins counts =
  let rows = Array.length counts in
  let cols = if rows = 0 then 0 else Array.length counts.(0) in
  let row_tot = Array.make rows 0. and col_tot = Array.make cols 0. in
  let n = ref 0. in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let c = counts.(i).(j) in
      row_tot.(i) <- row_tot.(i) +. c;
      col_tot.(j) <- col_tot.(j) +. c;
      n := !n +. c
    done
  done;
  let n = !n in
  if n <= 0. then invalid_arg "Mutual_info.of_counts: empty table";
  let plugin_nats = ref 0. in
  let m_xy = ref 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let c = counts.(i).(j) in
      if c > 0. then begin
        incr m_xy;
        plugin_nats :=
          !plugin_nats
          +. (c /. n *. Float.log (c *. n /. (row_tot.(i) *. col_tot.(j))))
      end
    done
  done;
  let plugin_nats = !plugin_nats in
  let m_x = Array.fold_left (fun a t -> if t > 0. then a + 1 else a) 0 row_tot in
  let m_y = Array.fold_left (fun a t -> if t > 0. then a + 1 else a) 0 col_tot in
  let correction =
    float_of_int (!m_xy - m_x - m_y + 1) /. (2. *. n)
  in
  let mm_nats = plugin_nats -. correction in
  let ln2 = Float.log 2. in
  (* G-test: G = 2 N * plugin MI (nats) ~ chi-square with
     (rows - 1)(cols - 1) df over the occupied rows/columns. *)
  let g_stat = 2. *. n *. plugin_nats in
  let df = max 1 ((max 1 (m_x - 1)) * max 1 (m_y - 1)) in
  let p_value = 1. -. Chi_square.cdf ~df g_stat in
  {
    mi_bits = mm_nats /. ln2;
    plugin_bits = plugin_nats /. ln2;
    plugin_nats;
    g_stat;
    df;
    p_value;
    n = int_of_float n;
    bins;
  }

(* Quantile bins per axis. *)
let bins = 8

let against_labels ~null ~alt =
  if Array.length null = 0 || Array.length alt = 0 then
    invalid_arg "Mutual_info.against_labels: empty sample";
  (* Bin edges from the pooled sample so both labels see the same cells. *)
  let pooled = Array.append null alt in
  let edges = Chi_square.empirical_edges pooled ~bins in
  let counts =
    [| Chi_square.bin_counts ~edges null; Chi_square.bin_counts ~edges alt |]
  in
  of_counts ~bins counts
