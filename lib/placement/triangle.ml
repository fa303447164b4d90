type t = { a : int; b : int; c : int }

let make x y z =
  if x = y || y = z || x = z then
    invalid_arg "Triangle.make: vertices must be distinct";
  let a = Stdlib.min x (Stdlib.min y z) in
  let c = Stdlib.max x (Stdlib.max y z) in
  let b = x + y + z - a - c in
  { a; b; c }

let vertices t = [ t.a; t.b; t.c ]
let edges t = [ (t.a, t.b); (t.a, t.c); (t.b, t.c) ]

let edge_disjoint ts =
  let seen = Hashtbl.create 64 in
  let rec check = function
    | [] -> true
    | t :: rest ->
        let fresh =
          List.for_all
            (fun e ->
              if Hashtbl.mem seen e then false
              else begin
                Hashtbl.add seen e ();
                true
              end)
            (edges t)
        in
        fresh && check rest
  in
  check ts
