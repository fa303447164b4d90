module Counter = struct
  type t = { mutable v : int }

  let[@inline] incr t = t.v <- t.v + 1
  let[@inline] add t n = t.v <- t.v + n
  let value t = t.v
  let reset t = t.v <- 0
end

module Sum = struct
  type t = { mutable v : float }

  let add t x = t.v <- t.v +. x
end

module Gauge = struct
  (* Two watermarks, merged on read: [v] for float observations and [vi] for
     the unboxed int fast path ([observe_int] is a compare and a store —
     no float boxing on the scheduling hot loop). *)
  type t = { mutable v : float; mutable vi : int }

  let observe t x = if x > t.v then t.v <- x
  let[@inline] observe_int t x = if x > t.vi then t.vi <- x
  let value t = Float.max t.v (float_of_int t.vi)
end

module Histogram = struct
  type t = {
    buckets : int array;
    mutable count : int;
    mutable total : int;
    mutable min : int;
    mutable max : int;
  }

  let make () =
    {
      buckets = Array.make Buckets.count 0;
      count = 0;
      total = 0;
      min = max_int;
      max = min_int;
    }

  let[@inline] observe t (v : int) =
    let i = Buckets.index v in
    t.buckets.(i) <- t.buckets.(i) + 1;
    t.count <- t.count + 1;
    t.total <- t.total + v;
    if v < t.min then t.min <- v;
    if v > t.max then t.max <- v
end

type metric =
  | M_counter of Counter.t
  | M_sum of Sum.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

type t = { metrics : (string, metric) Hashtbl.t }

let create () = { metrics = Hashtbl.create 64 }

let valid_path_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
  | _ -> false

let validate_path path =
  if String.length path = 0 then invalid_arg "Registry: empty metric path";
  String.iter
    (fun c ->
      if not (valid_path_char c) then
        invalid_arg
          (Printf.sprintf "Registry: invalid character %C in metric path %S" c
             path))
    path

let kind_name = function
  | M_counter _ -> "counter"
  | M_sum _ -> "sum"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

let register t path ~kind ~make ~cast =
  validate_path path;
  match Hashtbl.find_opt t.metrics path with
  | None ->
      let m = make () in
      Hashtbl.add t.metrics path m;
      (match cast m with Some h -> h | None -> assert false)
  | Some m -> (
      match cast m with
      | Some h -> h
      | None ->
          invalid_arg
            (Printf.sprintf "Registry: %s already registered as a %s, not a %s"
               path (kind_name m) kind))

let counter t path =
  register t path ~kind:"counter"
    ~make:(fun () -> M_counter { Counter.v = 0 })
    ~cast:(function M_counter c -> Some c | _ -> None)

let sum t path =
  register t path ~kind:"sum"
    ~make:(fun () -> M_sum { Sum.v = 0. })
    ~cast:(function M_sum s -> Some s | _ -> None)

let gauge t path =
  register t path ~kind:"gauge"
    ~make:(fun () -> M_gauge { Gauge.v = 0.; vi = 0 })
    ~cast:(function M_gauge g -> Some g | _ -> None)

let histogram t path =
  register t path ~kind:"histogram"
    ~make:(fun () -> M_histogram (Histogram.make ()))
    ~cast:(function M_histogram h -> Some h | _ -> None)

let data_of_metric = function
  | M_counter c -> Snapshot.Counter c.Counter.v
  | M_sum s -> Snapshot.Sum s.Sum.v
  | M_gauge g -> Snapshot.Gauge (Gauge.value g)
  | M_histogram h ->
      let buckets = ref [] in
      for i = Buckets.count - 1 downto 0 do
        if h.Histogram.buckets.(i) > 0 then
          buckets := (i, h.Histogram.buckets.(i)) :: !buckets
      done;
      Snapshot.Histogram
        {
          Snapshot.count = h.Histogram.count;
          total = h.Histogram.total;
          min = h.Histogram.min;
          max = h.Histogram.max;
          buckets = !buckets;
        }

let snapshot t =
  Snapshot.of_list
    (Hashtbl.fold
       (fun name m acc -> (name, data_of_metric m) :: acc)
       t.metrics [])
