let node ~v ~a ~layer =
  let q = (2 * v) + 1 in
  if a < 0 || a >= q then invalid_arg "Steiner.node: point out of range";
  if layer < 0 || layer > 2 then invalid_arg "Steiner.node: layer out of range";
  (layer * q) + a

let groups ~v =
  if v < 1 then invalid_arg "Steiner.groups: v must be >= 1";
  let q = (2 * v) + 1 in
  let qg = Quasigroup.create q in
  let g0 =
    List.init q (fun a ->
        Triangle.make (node ~v ~a ~layer:0) (node ~v ~a ~layer:1)
          (node ~v ~a ~layer:2))
  in
  let gt t =
    List.concat_map
      (fun layer ->
        List.init q (fun i ->
            let j = (i + t) mod q in
            Triangle.make
              (node ~v ~a:i ~layer)
              (node ~v ~a:j ~layer)
              (node ~v ~a:(Quasigroup.op qg i j) ~layer:((layer + 1) mod 3))))
      [ 0; 1; 2 ]
  in
  Array.init (v + 1) (fun t -> if t = 0 then g0 else gt t)

let partial_gv ~v =
  if v < 1 then invalid_arg "Steiner.partial_gv: v must be >= 1";
  let q = (2 * v) + 1 in
  let qg = Quasigroup.create q in
  List.init v (fun i ->
      let j = i + v in
      Triangle.make (node ~v ~a:i ~layer:0) (node ~v ~a:j ~layer:0)
        (node ~v ~a:(Quasigroup.op qg i j) ~layer:1))
