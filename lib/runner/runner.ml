type failure = { key : string; exn : string }
type 'a outcome = ('a, failure) result

let pp_failure fmt f = Format.fprintf fmt "job %s raised %s" f.key f.exn

type event =
  | Finished of { index : int; key : string; wall_s : float }
  | Failed of { index : int; key : string; exn : string }

let progress_printer ~total =
  let done_count = ref 0 in
  fun event ->
    incr done_count;
    match event with
    | Finished { key; wall_s; _ } ->
        Printf.eprintf "  [runner %d/%d] %s (%.2f s)\n%!" !done_count total key
          wall_s
    | Failed { key; exn; _ } ->
        Printf.eprintf "  [runner %d/%d] %s raised %s\n%!" !done_count total key
          exn

(* One job, run once. Runs on a worker domain; everything it touches is
   either owned by the job or the serialised [emit]. *)
let run_one ~emit index (key, f) =
  let t0 = Sw_obs.Profile.now_ns () in
  match f () with
  | v ->
      let wall_s = float_of_int (Sw_obs.Profile.now_ns () - t0) /. 1e9 in
      emit (Finished { index; key; wall_s });
      Ok v
  | exception e ->
      let exn = Printexc.to_string e in
      emit (Failed { index; key; exn });
      Error { key; exn }

let map ?pool ?on_event jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let event_mutex = Mutex.create () in
  let emit =
    match on_event with
    | None -> fun _ -> ()
    | Some f ->
        fun e ->
          Mutex.lock event_mutex;
          Fun.protect ~finally:(fun () -> Mutex.unlock event_mutex) (fun () ->
              f e)
  in
  match pool with
  | None -> Array.to_list (Array.mapi (run_one ~emit) jobs)
  | Some pool ->
      let results = Array.make n None in
      let remaining = ref n in
      let done_mutex = Mutex.create () in
      let all_done = Condition.create () in
      Array.iteri
        (fun i job ->
          Pool.submit pool (fun () ->
              let outcome = run_one ~emit i job in
              Mutex.lock done_mutex;
              results.(i) <- Some outcome;
              decr remaining;
              if !remaining = 0 then Condition.broadcast all_done;
              Mutex.unlock done_mutex))
        jobs;
      Mutex.lock done_mutex;
      while !remaining > 0 do
        Condition.wait all_done done_mutex
      done;
      Mutex.unlock done_mutex;
      Array.to_list
        (Array.map
           (function
             | Some o -> o
             | None -> assert false (* remaining = 0 implies every slot set *))
           results)

let map_groups ?pool ?on_event groups =
  let flat = List.concat_map snd groups in
  let outcomes = ref (map ?pool ?on_event flat) in
  List.map
    (fun (tag, jobs) ->
      let k = List.length jobs in
      let mine = List.filteri (fun i _ -> i < k) !outcomes in
      outcomes := List.filteri (fun i _ -> i >= k) !outcomes;
      (tag, mine))
    groups

let successes outcomes =
  List.filter_map (function Ok v -> Some v | Error _ -> None) outcomes

let failures outcomes =
  List.filter_map (function Ok _ -> None | Error f -> Some f) outcomes

let get = function
  | Ok v -> v
  | Error f -> failwith (Format.asprintf "%a" pp_failure f)
