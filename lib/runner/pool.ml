type t = {
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  work_available : Condition.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
  workers : int;
  escaped : int Atomic.t;
}

let escaped_exceptions t = Atomic.get t.escaped

let worker_loop t =
  let rec next () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.work_available t.mutex
    done;
    match Queue.take_opt t.queue with
    | None ->
        (* Closed and drained. *)
        Mutex.unlock t.mutex
    | Some task ->
        Mutex.unlock t.mutex;
        (try task () with _ -> Atomic.incr t.escaped);
        next ()
  in
  next ()

let create ~workers:n () =
  if n < 1 then invalid_arg "Pool.create: need >= 1 worker";
  let t =
    {
      queue = Queue.create ();
      mutex = Mutex.create ();
      work_available = Condition.create ();
      closed = false;
      domains = [];
      workers = n;
      escaped = Atomic.make 0;
    }
  in
  t.domains <- List.init n (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit t task =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push task t.queue;
  Condition.signal t.work_available;
  Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ~workers f =
  let t = create ~workers () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
