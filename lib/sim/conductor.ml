(* Conservative windowed coordination of per-shard engines. See the .mli
   for the protocol and the determinism argument.

   The hot path is built around three ideas:

   - A per-shard-pair lookahead matrix: shard [i]'s next window runs to
     [min over j <> i of (horizon j + L(j,i))] (capped at [until]), where
     [L(j,i)] is the smallest latency any link from shard [j] can impose
     on a hop into shard [i]. Well-separated shard pairs contribute wide
     bounds, so shards synchronise at the cadence of their *actual*
     neighbours instead of the global worst case. The uniform-lookahead
     conductor of old is the special case of a constant matrix. Safety:
     a message posted by [j] departs at or after [horizon j], so it
     arrives at or after [horizon j + L(j,i)], which is at or after every
     window end it could be asked to beat. Progress: the least-advanced
     shard's bound strictly exceeds its horizon, so every round moves the
     frontier by at least the smallest matrix entry.

   - [min(shards, cores)] workers, each running a contiguous block of
     shards: more domains than cores would time-slice through every
     barrier and every stop-the-world minor collection. A hybrid sense
     barrier on atomics: the main domain (worker 0) publishes a round by
     bumping the [go] epoch; the other workers spin briefly on it (with
     [Domain.cpu_relax]) and fall back to a condition variable when the
     window is long or the box is busy. Arrival is a fetch-and-add; the
     last worker signals the main domain only if it is actually asleep.
     All handoffs are (SC) atomics or mutex-ordered, and all non-atomic
     fields keep exactly one writer per phase.

   - Pooled, allocation-free exchange: outboxes and inboxes are growable
     arrays of mutable message records reused window after window. Each
     per-(src,dst) run is sorted in place (skipped when already sorted,
     the common case — arrivals from one source are mostly monotone) and
     the destination's inbox is filled by a k-way merge of the source
     runs. Field values are copied into destination-owned records: the
     source pool is reused next window, so sharing records would race. *)

type msg = {
  mutable at : Time.t;
  mutable src : int;
  mutable seq : int;
  mutable fn : unit -> unit;
}

let nop () = ()

(* A growable pool of message records; [data] slots beyond [len] are live
   records waiting to be reused. *)
type buf = { mutable data : msg array; mutable len : int }

let fresh_msg () = { at = Time.zero; src = 0; seq = 0; fn = nop }
let buf_make () = { data = [||]; len = 0 }

let buf_reserve b extra =
  let need = b.len + extra in
  let cap = Array.length b.data in
  if need > cap then begin
    let cap' = max need (max 8 (2 * cap)) in
    let data = Array.make cap' (fresh_msg ()) in
    Array.blit b.data 0 data 0 cap;
    for k = max cap 1 to cap' - 1 do
      data.(k) <- fresh_msg ()
    done;
    if cap = 0 then data.(0) <- fresh_msg ();
    b.data <- data
  end

let buf_push b ~at ~src ~seq ~fn =
  buf_reserve b 1;
  let m = b.data.(b.len) in
  m.at <- at;
  m.src <- src;
  m.seq <- seq;
  m.fn <- fn;
  b.len <- b.len + 1

(* The exchange total order: (arrival, source shard, source sequence).
   Within one source, [seq] is post order; across sources the shard index
   breaks ties at identical nanosecond instants deterministically. *)
let before_in_run x y =
  let c = Time.compare x.at y.at in
  c < 0 || (c = 0 && x.seq < y.seq)

(* In-place heapsort of [b.data.(0 .. len-1)] by (at, seq) — (at, seq) is
   unique within a run, so stability is moot. Only called on the rare run
   that arrives out of order. *)
let sort_run b =
  let a = b.data and n = b.len in
  let sift root limit =
    let root = ref root in
    let continue = ref true in
    while !continue do
      let child = (2 * !root) + 1 in
      if child >= limit then continue := false
      else begin
        let child =
          if child + 1 < limit && before_in_run a.(child) a.(child + 1) then
            child + 1
          else child
        in
        if before_in_run a.(!root) a.(child) then begin
          let tmp = a.(!root) in
          a.(!root) <- a.(child);
          a.(child) <- tmp;
          root := child
        end
        else continue := false
      end
    done
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let tmp = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- tmp;
    sift 0 last
  done

let run_sorted b =
  let sorted = ref true in
  let k = ref 1 in
  while !sorted && !k < b.len do
    if before_in_run b.data.(!k) b.data.(!k - 1) then sorted := false;
    incr k
  done;
  !sorted

(* Everything a [t] holds between [run] calls is plain marshalable data —
   engines, pools, counters, times, metric handles. The atomic/mutex
   barrier and its bookkeeping live in a [gang] built afresh for each
   multi-worker [run] call and torn down before it returns, so a quiescent
   conductor can be captured by [Marshal] (checkpointing marshals whole
   clouds, conductor included) without ever reaching an unmarshalable
   custom block. [run] reads the worker count from the host each time. *)
type t = {
  engines : Engine.t array;
  matrix : Time.t array array;  (* matrix.(src).(dst); diagonal unused *)
  horizon : Time.t array;  (* per-shard committed simulation time *)
  window_end : Time.t array;  (* per-shard target of the current round *)
  outbox : buf array array;  (* outbox.(src).(dst) *)
  post_seq : int array;  (* per-source post counter, source-domain-local *)
  inbox : buf array;  (* per-destination, merge-sorted at the barrier *)
  merge_head : int array;  (* scratch cursor per source during the merge *)
  xshard : Engine.kind option array;  (* per shard, boxed once *)
  mutable exchanged : int;
  (* sim.shard instruments, registered on shard 0's registry and written
     only by the driving domain at the barrier. *)
  m_windows : Sw_obs.Registry.Counter.t;
  m_exchanged : Sw_obs.Registry.Counter.t array;  (* flat n*n, src*n + dst *)
  barrier : Sw_obs.Profile.timer;  (* on shard 0's engine profile *)
}

(* The per-[run] gang; the main domain is worker 0. [go] counts released
   rounds (workers run a round when [go] moves past what they have seen);
   [arrived] counts spawned workers done with the round; [sleepers]/
   [main_waiting] tell the other side whether a condvar signal is needed. *)
type gang = {
  workers : int;
  go : int Atomic.t;
  quit : bool Atomic.t;
  arrived : int Atomic.t;
  sleepers : int Atomic.t;
  main_waiting : bool Atomic.t;
  failed : exn option Atomic.t;
  lock : Mutex.t;
  worker_cv : Condition.t;  (* workers sleep here for the next [go] *)
  main_cv : Condition.t;  (* main sleeps here for the last arrival *)
}

(* Spin this many [cpu_relax] rounds before sleeping: long enough to catch
   a same-cadence peer, short enough not to burn a timeslice when the
   blocks are imbalanced or the box is busy. *)
let spin_budget = 4096

let create ~matrix engines =
  let n = Array.length engines in
  if n = 0 then invalid_arg "Conductor.create: no shards";
  if Array.length matrix <> n then
    invalid_arg "Conductor.create: lookahead matrix must be n x n";
  let matrix =
    Array.init n (fun i ->
        if Array.length matrix.(i) <> n then
          invalid_arg "Conductor.create: lookahead matrix must be n x n";
        Array.init n (fun j ->
            if i <> j && Time.(matrix.(i).(j) <= Time.zero) then
              invalid_arg
                "Conductor.create: lookahead matrix entries must be positive \
                 off the diagonal";
            matrix.(i).(j)))
  in
  let registry = Engine.metrics engines.(0) in
  (* Diagonal exchange counters can never tick; park them in a throwaway
     registry so shard 0's snapshots only carry real pairs. *)
  let scratch = Sw_obs.Registry.create () in
  let m_exchanged =
    Array.init (n * n) (fun k ->
        let src = k / n and dst = k mod n in
        if src = dst then Sw_obs.Registry.counter scratch "sim.shard.unused"
        else
          Sw_obs.Registry.counter registry
            (Printf.sprintf "sim.shard.exchanged.s%d.s%d" src dst))
  in
  {
    engines;
    matrix;
    horizon = Array.make n Time.zero;
    window_end = Array.make n Time.zero;
    outbox = Array.init n (fun _ -> Array.init n (fun _ -> buf_make ()));
    post_seq = Array.make n 0;
    inbox = Array.init n (fun _ -> buf_make ());
    merge_head = Array.make n 0;
    xshard = Array.map (fun e -> Some (Engine.kind e "xshard")) engines;
    exchanged = 0;
    m_windows = Sw_obs.Registry.counter registry "sim.shard.windows";
    m_exchanged;
    barrier =
      Sw_obs.Profile.timer (Engine.profile engines.(0)) "conductor.barrier";
  }

let exchanged t = t.exchanged

let post t ~src ~dst ~at fn =
  if Time.(at < t.window_end.(dst)) then
    invalid_arg
      (Format.asprintf
         "Conductor.post: lookahead violated on shard %d -> shard %d: \
          arrival %a precedes the destination window end %a"
         src dst Time.pp at Time.pp t.window_end.(dst));
  let seq = t.post_seq.(src) in
  t.post_seq.(src) <- seq + 1;
  buf_push t.outbox.(src).(dst) ~at ~src ~seq ~fn

(* Drive shard [i] through one round: inject the merged inbox, then run the
   engine to the round's window end (parking exactly there). Skipped
   entirely when the shard has nothing to do — no injections and no time
   to cover. *)
let run_shard t i =
  let b = t.inbox.(i) in
  let eng = t.engines.(i) in
  if b.len > 0 then begin
    let kind = t.xshard.(i) in
    for k = 0 to b.len - 1 do
      let m = b.data.(k) in
      Engine.schedule_at ?kind eng m.at m.fn;
      m.fn <- nop
    done;
    b.len <- 0;
    Engine.run ~until:t.window_end.(i) eng
  end
  else if Time.(t.window_end.(i) > t.horizon.(i)) then
    Engine.run ~until:t.window_end.(i) eng

(* Merge every source's outbox run into its destination inbox, in the
   exchange total order. Runs on the driving domain while workers are
   parked at the barrier. *)
let exchange t =
  let n = Array.length t.engines in
  for d = 0 to n - 1 do
    let total = ref 0 in
    for s = 0 to n - 1 do
      let run = t.outbox.(s).(d) in
      if run.len > 0 then begin
        if not (run_sorted run) then sort_run run;
        Sw_obs.Registry.Counter.add t.m_exchanged.((s * n) + d) run.len;
        total := !total + run.len
      end;
      t.merge_head.(s) <- 0
    done;
    if !total > 0 then begin
      t.exchanged <- t.exchanged + !total;
      let inbox = t.inbox.(d) in
      buf_reserve inbox !total;
      for _ = 1 to !total do
        (* Smallest (at, src, seq) among the source runs' heads; [src]
           ascending scan breaks at-ties toward the lower shard for free. *)
        let best = ref (-1) in
        for s = 0 to n - 1 do
          let run = t.outbox.(s).(d) in
          if t.merge_head.(s) < run.len then
            if
              !best = -1
              ||
              let m = run.data.(t.merge_head.(s)) in
              Time.(m.at < t.outbox.(!best).(d).data.(t.merge_head.(!best)).at)
            then best := s
        done;
        let s = !best in
        let m = t.outbox.(s).(d).data.(t.merge_head.(s)) in
        t.merge_head.(s) <- t.merge_head.(s) + 1;
        let slot = inbox.data.(inbox.len) in
        slot.at <- m.at;
        slot.src <- m.src;
        slot.seq <- m.seq;
        slot.fn <- m.fn;
        (* Source slots are reused next window; drop the closure now so the
           pool never retains a dead environment. *)
        m.fn <- nop;
        inbox.len <- inbox.len + 1
      done;
      for s = 0 to n - 1 do
        t.outbox.(s).(d).len <- 0
      done
    end
  done

(* Compute the next round's per-shard window ends from the current
   horizons: shard [i] may run to the earliest instant any other shard
   could still reach it, capped at [until]. *)
let plan_round t ~until =
  let n = Array.length t.engines in
  for i = 0 to n - 1 do
    let lim = ref until in
    for j = 0 to n - 1 do
      if j <> i then begin
        let bound = Time.add t.horizon.(j) t.matrix.(j).(i) in
        if Time.(bound < !lim) then lim := bound
      end
    done;
    t.window_end.(i) <- Time.max t.horizon.(i) !lim
  done

let behind t ~until =
  let n = Array.length t.engines in
  let rec go i = i < n && (Time.(t.horizon.(i) < until) || go (i + 1)) in
  go 0

(* Worker [w] of [k]'s block: non-empty while [k <= n]. *)
let run_block t k w =
  let n = Array.length t.engines in
  for i = w * n / k to ((w + 1) * n / k) - 1 do
    run_shard t i
  done

(* Spawned worker [w]: spin (then sleep) for the next [go] epoch, run its
   block, report arrival. All conductor fields read outside the atomics are
   written by the main domain before the [go] bump and stable until every
   worker has arrived, so the epoch handoff publishes them (plain writes
   are visible across an SC-atomic release/acquire pair). *)
let worker t g w =
  let await seen =
    let rec spin k =
      let e = Atomic.get g.go in
      if e <> seen then Some e
      else if Atomic.get g.quit then None
      else if k < spin_budget then begin
        Domain.cpu_relax ();
        spin (k + 1)
      end
      else begin
        Mutex.lock g.lock;
        Atomic.incr g.sleepers;
        let rec sleep () =
          let e = Atomic.get g.go in
          if e <> seen then Some e
          else if Atomic.get g.quit then None
          else begin
            Condition.wait g.worker_cv g.lock;
            sleep ()
          end
        in
        let r = sleep () in
        Atomic.decr g.sleepers;
        Mutex.unlock g.lock;
        r
      end
    in
    spin 0
  in
  let rec loop seen =
    match await seen with
    | None -> ()
    | Some epoch ->
        (* A failure must still reach the barrier, or the main domain waits
           forever; it is recorded and re-raised over there. *)
        let failure =
          match run_block t g.workers w with () -> None | exception e -> Some e
        in
        (match failure with
        | Some e -> ignore (Atomic.compare_and_set g.failed None (Some e))
        | None -> ());
        let prior = Atomic.fetch_and_add g.arrived 1 in
        if prior = g.workers - 2 && Atomic.get g.main_waiting then begin
          Mutex.lock g.lock;
          Condition.signal g.main_cv;
          Mutex.unlock g.lock
        end;
        if failure = None then loop epoch
  in
  loop 0

(* Main-domain side of the barrier: spin for the stragglers, then sleep.
   The wait (spin and sleep alike) is the barrier tax. It is wall time, so
   it goes to shard 0's profile, which only the main domain touches. A
   worker's failure is re-raised here. *)
let await_workers t g =
  let spawned = g.workers - 1 in
  let t0 = Sw_obs.Profile.now_ns () in
  let rec spin k =
    if Atomic.get g.arrived < spawned then
      if k < spin_budget then begin
        Domain.cpu_relax ();
        spin (k + 1)
      end
      else begin
        Mutex.lock g.lock;
        Atomic.set g.main_waiting true;
        while Atomic.get g.arrived < spawned do
          Condition.wait g.main_cv g.lock
        done;
        Atomic.set g.main_waiting false;
        Mutex.unlock g.lock
      end
  in
  spin 0;
  Sw_obs.Profile.record_ns t.barrier (Sw_obs.Profile.now_ns () - t0);
  match Atomic.get g.failed with Some e -> raise e | None -> ()

let run ?workers t ~until =
  let n = Array.length t.engines in
  if n = 1 then begin
    (* One shard: no windows, no barriers — exactly the legacy loop. *)
    Engine.run ~until t.engines.(0);
    t.horizon.(0) <- Time.max t.horizon.(0) until;
    t.window_end.(0) <- t.horizon.(0)
  end
  else begin
    let cores = Domain.recommended_domain_count () in
    let k = max 1 (min n (Option.value workers ~default:cores)) in
    let g =
      {
        workers = k;
        go = Atomic.make 0;
        quit = Atomic.make false;
        arrived = Atomic.make 0;
        sleepers = Atomic.make 0;
        main_waiting = Atomic.make false;
        failed = Atomic.make None;
        lock = Mutex.create ();
        worker_cv = Condition.create ();
        main_cv = Condition.create ();
      }
    in
    let domains =
      Array.init (k - 1) (fun w -> Domain.spawn (fun () -> worker t g (w + 1)))
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set g.quit true;
        Mutex.lock g.lock;
        Condition.broadcast g.worker_cv;
        Mutex.unlock g.lock;
        Array.iter Domain.join domains)
      (fun () ->
        while behind t ~until do
          plan_round t ~until;
          Sw_obs.Registry.Counter.incr t.m_windows;
          if k > 1 then begin
            Atomic.set g.arrived 0;
            Atomic.incr g.go;
            if Atomic.get g.sleepers > 0 then begin
              Mutex.lock g.lock;
              Condition.broadcast g.worker_cv;
              Mutex.unlock g.lock
            end
          end;
          run_block t k 0;
          (* Raising here, or from the main block, trips the [finally]:
             quit is published and the other workers join before the
             exception escapes. *)
          if k > 1 then await_workers t g;
          exchange t;
          Array.blit t.window_end 0 t.horizon 0 n
        done)
  end
