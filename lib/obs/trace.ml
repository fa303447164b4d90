type entry = { at_ns : int; event : Event.t }

type t = {
  capacity : int;
  buffer : entry option array;
  mutable next : int;
  mutable count : int;
  mutable dropped : int;
  m_dropped : Registry.Counter.t option;
}

let create ?(capacity = 65536) ?metrics () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    capacity;
    buffer = Array.make capacity None;
    next = 0;
    count = 0;
    dropped = 0;
    m_dropped = Option.map (fun r -> Registry.counter r "trace.dropped") metrics;
  }

let emit t ~at_ns event =
  if t.count = t.capacity then begin
    (* The ring overwrites its oldest entry; count the loss so a truncated
       trace is never mistaken for a complete one. *)
    t.dropped <- t.dropped + 1;
    match t.m_dropped with
    | Some c -> Registry.Counter.incr c
    | None -> ()
  end;
  t.buffer.(t.next) <- Some { at_ns; event };
  t.next <- (t.next + 1) mod t.capacity;
  if t.count < t.capacity then t.count <- t.count + 1

let iter t f =
  let start = if t.count < t.capacity then 0 else t.next in
  for i = 0 to t.count - 1 do
    match t.buffer.((start + i) mod t.capacity) with
    | None -> ()
    | Some e -> f e
  done

let fold f acc t =
  let r = ref acc in
  iter t (fun e -> r := f !r e);
  !r

let entries t = List.rev (fold (fun acc e -> e :: acc) [] t)

let clear t =
  Array.fill t.buffer 0 t.capacity None;
  t.next <- 0;
  t.count <- 0;
  t.dropped <- 0;
  (* Keep the registry mirror in lockstep with the ring counter: a cleared
     ring that leaves the mirror standing makes post-restore lineage
     reconstruction report drops that never reached the surviving ring. *)
  match t.m_dropped with
  | Some c -> Registry.Counter.reset c
  | None -> ()

let length t = t.count
let capacity t = t.capacity
let dropped t = t.dropped

let span t ~now ~name f =
  let start = now () in
  emit t ~at_ns:start (Event.Span_begin { name });
  let finish result =
    let stop = now () in
    emit t ~at_ns:stop (Event.Span_end { name; elapsed_ns = stop - start });
    result
  in
  match f () with
  | v -> finish v
  | exception e ->
      ignore (finish ());
      raise e

let pp_entry fmt e =
  Format.fprintf fmt "[%a] %-10s %a" Event.pp_ns e.at_ns
    (Event.label e.event) Event.pp e.event
