type entry = { at_ns : int; event : Event.t }

(* The window is the last [capacity] emits. Only the entries [keep] accepts
   are stored, in a circular buffer that grows by doubling up to
   [capacity]; [seqs.(i)] is the emit index of [buffer.(i)], which is how an
   entry is known to have left the window. *)
type t = {
  capacity : int;
  keep : Event.t -> bool;
  mutable buffer : entry array;
  mutable seqs : int array;
  mutable head : int;  (** Slot of the oldest stored entry. *)
  mutable length : int;
  mutable emitted : int;  (** Emits since creation or the last [clear]. *)
  m_dropped : Registry.Counter.t option;
}

let create ?(capacity = 65536) ?(keep = fun _ -> true) ?metrics () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    capacity;
    keep;
    buffer = [||];
    seqs = [||];
    head = 0;
    length = 0;
    emitted = 0;
    m_dropped = Option.map (fun r -> Registry.counter r "trace.dropped") metrics;
  }

let slot t i =
  let j = t.head + i in
  if j >= Array.length t.buffer then j - Array.length t.buffer else j

(* Only called when the buffer is full and shorter than [capacity]: the
   window holds at most [capacity] entries, so it never needs more. *)
let grow t e =
  let size = Int.min t.capacity (Int.max 16 (2 * t.length)) in
  let buffer = Array.make size e and seqs = Array.make size 0 in
  for i = 0 to t.length - 1 do
    let j = slot t i in
    buffer.(i) <- t.buffer.(j);
    seqs.(i) <- t.seqs.(j)
  done;
  t.buffer <- buffer;
  t.seqs <- seqs;
  t.head <- 0

let emit t ~at_ns event =
  let seq = t.emitted in
  t.emitted <- seq + 1;
  if seq >= t.capacity then begin
    (* Emit [seq - capacity] leaves the window; count the loss so a
       truncated trace is never mistaken for a complete one, and evict it
       when it was stored. *)
    (match t.m_dropped with
    | Some c -> Registry.Counter.incr c
    | None -> ());
    if t.length > 0 && t.seqs.(t.head) = seq - t.capacity then begin
      t.head <- slot t 1;
      t.length <- t.length - 1
    end
  end;
  if t.keep event then begin
    let e = { at_ns; event } in
    if t.length = Array.length t.buffer then grow t e;
    let j = slot t t.length in
    t.buffer.(j) <- e;
    t.seqs.(j) <- seq;
    t.length <- t.length + 1
  end

let iter t f =
  for i = 0 to t.length - 1 do
    f t.buffer.(slot t i)
  done

let fold f acc t =
  let r = ref acc in
  iter t (fun e -> r := f !r e);
  !r

let entries t = List.rev (fold (fun acc e -> e :: acc) [] t)

let clear t =
  t.buffer <- [||];
  t.seqs <- [||];
  t.head <- 0;
  t.length <- 0;
  t.emitted <- 0;
  (* Keep the registry mirror in lockstep with the window: a cleared trace
     that leaves the mirror standing makes post-restore lineage
     reconstruction report drops that never reached the surviving window. *)
  match t.m_dropped with
  | Some c -> Registry.Counter.reset c
  | None -> ()

let length t = t.length
let capacity t = t.capacity
let dropped t = Int.max 0 (t.emitted - t.capacity)

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
