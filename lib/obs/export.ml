type meta = {
  seed : int64 option;
  scenario : string option;
  trace_capacity : int option;
  trace_dropped : int option;
}

let meta ?seed ?scenario ?trace_capacity ?trace_dropped () =
  { seed; scenario; trace_capacity; trace_dropped }

let meta_json m =
  let field name f = Option.map (fun v -> (name, f v)) in
  Json.Obj
    (List.filter_map Fun.id
       [
         field "seed" Json.of_int64 m.seed;
         field "scenario" (fun s -> Json.String s) m.scenario;
         field "trace_capacity" (fun c -> Json.Int c) m.trace_capacity;
         field "trace_dropped" (fun d -> Json.Int d) m.trace_dropped;
       ])

let histogram_json (h : Snapshot.histogram) =
  let bound v = if h.Snapshot.count = 0 then Json.Null else Json.Int v in
  let bucket (idx, n) =
    let b = Buckets.bound idx in
    Json.List
      [
        (if b = max_int then Json.Null else Json.Int b);
        Json.Int n;
      ]
  in
  Json.Obj
    [
      ("kind", Json.String "histogram");
      ("count", Json.Int h.Snapshot.count);
      ("total", Json.Int h.Snapshot.total);
      ("min", bound h.Snapshot.min);
      ("max", bound h.Snapshot.max);
      ("buckets", Json.List (List.map bucket h.Snapshot.buckets));
    ]

let data_json = function
  | Snapshot.Counter v ->
      Json.Obj [ ("kind", Json.String "counter"); ("value", Json.Int v) ]
  | Snapshot.Sum v ->
      Json.Obj [ ("kind", Json.String "sum"); ("value", Json.Float v) ]
  | Snapshot.Gauge v ->
      Json.Obj [ ("kind", Json.String "gauge"); ("value", Json.Float v) ]
  | Snapshot.Histogram h -> histogram_json h

let to_json snapshot =
  Json.Obj
    (List.map (fun (name, data) -> (name, data_json data)) (Snapshot.to_list snapshot))

let to_json_string snapshot = Json.to_string (to_json snapshot)

let jsonl ~meta entries =
  let buf = Buffer.create 4096 in
  let line json =
    Buffer.add_string buf (Json.to_string json);
    Buffer.add_char buf '\n'
  in
  line (Json.Obj [ ("meta", meta_json meta) ]);
  List.iter
    (fun (e : Trace.entry) ->
      line
        (Json.Obj
           [
             ("at_ns", Json.Int e.Trace.at_ns);
             ("kind", Json.String (Event.label e.Trace.event));
             ("text", Json.String (Format.asprintf "%a" Event.pp e.Trace.event));
           ]))
    entries;
  Buffer.contents buf
