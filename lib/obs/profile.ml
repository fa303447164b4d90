type timer = {
  name : string;
  mutable total_ns : int;
  mutable count : int;
}

type t = {
  mutable enabled : bool;
  timers : (string, timer) Hashtbl.t;
}

let create ?(enabled = false) () = { enabled; timers = Hashtbl.create 8 }
let enabled t = t.enabled
let set_enabled t v = t.enabled <- v

let validate_name name =
  if name = "" then invalid_arg "Profile: empty timer name";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> ()
      | _ -> invalid_arg ("Profile: invalid timer name: " ^ name))
    name

let timer t name =
  match Hashtbl.find_opt t.timers name with
  | Some tm -> tm
  | None ->
      validate_name name;
      let tm = { name; total_ns = 0; count = 0 } in
      Hashtbl.add t.timers name tm;
      tm

let record_ns tm ns =
  tm.total_ns <- tm.total_ns + ns;
  tm.count <- tm.count + 1

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let time t tm f =
  (* One load and one branch when profiling is off: no clock read, no
     accumulator update. When on, each arm records inline: a helper
     closing over [t0] would be allocated on every call. *)
  if not t.enabled then f ()
  else begin
    let t0 = now_ns () in
    match f () with
    | v ->
        record_ns tm (now_ns () - t0);
        v
    | exception e ->
        record_ns tm (now_ns () - t0);
        raise e
  end

let total_ns tm = tm.total_ns

let to_list t =
  List.sort
    (fun (a, _, _) (b, _, _) -> String.compare a b)
    (Hashtbl.fold
       (fun name tm acc -> (name, tm.total_ns, tm.count) :: acc)
       t.timers [])
