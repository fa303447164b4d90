type reason = Exn of string | Timed_out of float
type failure = { key : string; attempts : int; reason : reason }
type 'a outcome = ('a, failure) result

let pp_reason fmt = function
  | Exn msg -> Format.fprintf fmt "raised %s" msg
  | Timed_out s -> Format.fprintf fmt "timed out after %.2f s" s

let pp_failure fmt f =
  Format.fprintf fmt "job %s failed after %d attempt%s: %a" f.key f.attempts
    (if f.attempts = 1 then "" else "s")
    pp_reason f.reason

type event =
  | Started of { index : int; key : string; attempt : int }
  | Attempt_failed of {
      index : int;
      key : string;
      attempt : int;
      reason : reason;
      will_retry : bool;
    }
  | Finished of { index : int; key : string; attempt : int; wall_s : float }

let progress_printer ~total =
  let done_count = ref 0 in
  fun event ->
    match event with
    | Started _ -> ()
    | Attempt_failed { key; attempt; reason; will_retry; _ } ->
        Printf.eprintf "  [runner] %s attempt %d %s%s\n%!" key attempt
          (Format.asprintf "%a" pp_reason reason)
          (if will_retry then "; retrying" else "; giving up")
    | Finished { key; attempt; wall_s; _ } ->
        incr done_count;
        Printf.eprintf "  [runner %d/%d] %s (%.2f s%s)\n%!" !done_count
          total key wall_s
          (if attempt > 1 then Printf.sprintf "; attempt %d" attempt else "")

(* One job, all its attempts. Runs on a worker domain; everything it
   touches is either owned by the job or the serialised [emit]. *)
let run_one ~emit ~timeout_s ~retries ~backoff_s index job =
  let key = Job.key job in
  let rec attempt k =
    emit (Started { index; key; attempt = k });
    let t0 = Sw_obs.Profile.now_ns () in
    let result =
      try Ok (Job.run_attempt job ~attempt:k)
      with e -> Error (Exn (Printexc.to_string e))
    in
    let wall_s = float_of_int (Sw_obs.Profile.now_ns () - t0) /. 1e9 in
    let status =
      match result with
      | Error _ -> result
      | Ok _ -> (
          match timeout_s with
          | Some limit when wall_s > limit -> Error (Timed_out wall_s)
          | _ -> result)
    in
    match status with
    | Ok v ->
        emit (Finished { index; key; attempt = k; wall_s });
        Ok v
    | Error reason ->
        let will_retry = k <= retries in
        emit (Attempt_failed { index; key; attempt = k; reason; will_retry });
        if will_retry then begin
          if backoff_s > 0. then
            Unix.sleepf (backoff_s *. (2. ** float_of_int (k - 1)));
          attempt (k + 1)
        end
        else Error { key; attempts = k; reason }
  in
  attempt 1

let map ?pool ?timeout_s ?(retries = 1) ?(backoff_s = 0.05) ?on_event jobs =
  if retries < 0 then invalid_arg "Runner.map: retries must be >= 0";
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
  | None ->
      Array.to_list
        (Array.mapi
           (fun i job -> run_one ~emit ~timeout_s ~retries ~backoff_s i job)
           jobs)
  | Some pool ->
      let results = Array.make n None in
      let remaining = ref n in
      let done_mutex = Mutex.create () in
      let all_done = Condition.create () in
      Array.iteri
        (fun i job ->
          Pool.submit pool (fun () ->
              let outcome =
                run_one ~emit ~timeout_s ~retries ~backoff_s i job
              in
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

let map_groups ?pool ?timeout_s ?retries ?backoff_s ?on_event groups =
  let flat = List.concat_map snd groups in
  let outcomes = ref (map ?pool ?timeout_s ?retries ?backoff_s ?on_event flat) in
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

let merge_summaries outcomes =
  List.fold_left Sw_sim.Summary.merge (Sw_sim.Summary.create ())
    (successes outcomes)

let get = function
  | Ok v -> v
  | Error f -> failwith (Format.asprintf "%a" pp_failure f)
