type histogram = {
  count : int;
  total : int;
  min : int;
  max : int;
  buckets : (int * int) list;
}

type data =
  | Counter of int
  | Sum of float
  | Gauge of float
  | Histogram of histogram

type t = (string * data) list (* sorted by name, unique *)

let empty = []

let of_list entries =
  let sorted =
    List.sort (fun (a, _) (b, _) -> String.compare a b) entries
  in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg ("Snapshot.of_list: duplicate metric " ^ a);
        check rest
    | _ -> ()
  in
  check sorted;
  sorted

let to_list t = t
let is_empty t = t = []
let find t name = List.assoc_opt name t

let counter t name =
  match find t name with
  | None -> 0
  | Some (Counter v) -> v
  | Some _ -> invalid_arg ("Snapshot.counter: " ^ name ^ " is not a counter")

let sum t name =
  match find t name with
  | None -> 0.
  | Some (Sum v) -> v
  | Some _ -> invalid_arg ("Snapshot.sum: " ^ name ^ " is not a sum")

let gauge t name =
  match find t name with
  | None -> 0.
  | Some (Gauge v) -> v
  | Some _ -> invalid_arg ("Snapshot.gauge: " ^ name ^ " is not a gauge")

let histogram t name =
  match find t name with
  | None -> None
  | Some (Histogram h) -> Some h
  | Some _ -> invalid_arg ("Snapshot.histogram: " ^ name ^ " is not a histogram")

let merge_buckets a b =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (ia, ca) :: ta, (ib, cb) :: tb ->
        if ia = ib then (ia, ca + cb) :: go ta tb
        else if ia < ib then (ia, ca) :: go ta b
        else (ib, cb) :: go a tb
  in
  go a b

let merge_histogram a b =
  if a.count = 0 then b
  else if b.count = 0 then a
  else
    {
      count = a.count + b.count;
      total = a.total + b.total;
      min = Int.min a.min b.min;
      max = Int.max a.max b.max;
      buckets = merge_buckets a.buckets b.buckets;
    }

let merge_data name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Sum x, Sum y -> Sum (x +. y)
  | Gauge x, Gauge y -> Gauge (Float.max x y)
  | Histogram x, Histogram y -> Histogram (merge_histogram x y)
  | _ -> invalid_arg ("Snapshot.merge: metric kind mismatch at " ^ name)

(* Sorted-list merge-join: names on one side pass through, shared names
   combine. *)
let merge a b =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (na, da) :: ta, (nb, db) :: tb ->
        let c = String.compare na nb in
        if c = 0 then (na, merge_data na da db) :: go ta tb
        else if c < 0 then (na, da) :: go ta b
        else (nb, db) :: go a tb
  in
  go a b

let merge_all = List.fold_left merge empty
let without_sim t =
  List.filter (fun (name, _) -> not (String.starts_with ~prefix:"sim." name)) t
