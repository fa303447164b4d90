(* Hierarchical timer wheel + overflow heap over a pool of reusable event
   records. See wheel.mli for the tier layout and the ordering argument.

   Keys are {!Time.t} nanoseconds, immediate ints: simulated time is
   non-negative and bounded by 2^62 ns (~146 years), so the hot paths run
   on int compares and shifts and allocate nothing. The overflow heap is
   keyed by the same ints.

   Invariants, maintained by every operation:

   - [horizon] is a multiple of the level-0 granule. Every pending or
     tombstoned record with [key < horizon] sits in the ready heap; the
     wheel slots and the overflow heap only hold records with
     [key >= horizon].
   - An event files at the finest level [l] whose cursor tick it is within
     [slots] ticks of, so at every level the live ticks span at most one
     rotation: the absolute tick of an occupied slot is recoverable from the
     cursor and the slot index alone.
   - [horizon] never passes the start of a non-empty slot or an overflow
     key without first moving its events into finer levels or the ready
     heap. Slot starts at every level are multiples of the level-0 granule,
     so draining one level-0 slot and advancing [horizon] to its end cannot
     step over a coarser slot's start.

   The ready heap compares [(key, seq)] directly on the pooled records, so
   no ordering responsibility rests on slot chain order — chains are
   prepend-only and cascades may reverse them freely. *)

type ev = {
  mutable key : int;
  mutable seq : int;
  mutable gen : int;
  mutable state : int;
  mutable fn : unit -> unit;
  mutable next : int;  (* slot chain / free list link; -1 terminates *)
}

type handle = int

(* States. [s_free] records are on the free list; [s_cancelled] are lazy
   tombstones awaiting collection. *)
let s_free = 0

let s_pending = 1
let s_cancelled = 2
let dummy_fn () = ()

let slot_bits = 5
let slots = 1 lsl slot_bits
let slot_mask = slots - 1
let g0_bits = 9 (* level-0 granule: 512 ns *)
let levels = 6 (* top level span: 2^(9 + 5*6) ns ~ 550 s *)
let shift l = g0_bits + (slot_bits * l)

type t = {
  mutable slab : ev array;
  mutable slab_len : int;
  mutable free_head : int;
  mutable seq : int;
  mutable stored : int;  (* pending + uncollected tombstones, all tiers *)
  mutable horizon : int;
  slot_head : int array;  (* levels * slots chain heads, -1 = empty *)
  occ : int array;  (* per-level occupancy bitmask over slot indices *)
  mutable ready : int array;  (* binary heap of slab indices *)
  mutable ready_len : int;
  overflow : int Heap.t;
}

let mk_ev () =
  { key = 0; seq = 0; gen = 0; state = s_free; fn = dummy_fn; next = -1 }

let create () =
  {
    slab = [||];
    slab_len = 0;
    free_head = -1;
    seq = 0;
    stored = 0;
    horizon = 0;
    slot_head = Array.make (levels * slots) (-1);
    occ = Array.make levels 0;
    ready = Array.make 64 (-1);
    ready_len = 0;
    overflow = Heap.create ();
  }

(* --- Record pool ------------------------------------------------------- *)

(* Handles pack (generation, slab index); both the index width and the
   generation wrap fit comfortably in OCaml's 63-bit immediates. *)
let idx_bits = 31

let idx_mask = (1 lsl idx_bits) - 1
let gen_mask = (1 lsl 30) - 1
let handle_of i gen = (gen lsl idx_bits) lor i
let index_of h = h land idx_mask
let gen_of h = h lsr idx_bits

let grow t =
  let cap = Array.length t.slab in
  let cap' = Stdlib.max 64 (2 * cap) in
  (* Array.make shares one record across the fresh tail; give every new
     cell (past the first) its own. *)
  let slab' = Array.make cap' (mk_ev ()) in
  Array.blit t.slab 0 slab' 0 cap;
  for i = cap + 1 to cap' - 1 do
    slab'.(i) <- mk_ev ()
  done;
  t.slab <- slab'

let acquire t =
  if t.free_head >= 0 then begin
    let i = t.free_head in
    t.free_head <- t.slab.(i).next;
    i
  end
  else begin
    if t.slab_len >= Array.length t.slab then grow t;
    let i = t.slab_len in
    t.slab_len <- t.slab_len + 1;
    i
  end

(* Recycle a record: bump the generation so outstanding handles go stale,
   drop the closure so it can be collected, and chain onto the free list. *)
let release t i =
  let e = t.slab.(i) in
  e.state <- s_free;
  e.fn <- dummy_fn;
  e.gen <- (e.gen + 1) land gen_mask;
  e.next <- t.free_head;
  t.free_head <- i;
  t.stored <- t.stored - 1

(* --- Ready heap (slab indices ordered by (key, seq)) ------------------- *)

let[@inline] ev_lt slab i j =
  let a = slab.(i) and b = slab.(j) in
  if a.key <> b.key then a.key < b.key else a.seq < b.seq

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if ev_lt t.slab t.ready.(i) t.ready.(p) then begin
      let tmp = t.ready.(i) in
      t.ready.(i) <- t.ready.(p);
      t.ready.(p) <- tmp;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = ref i in
  if l < t.ready_len && ev_lt t.slab t.ready.(l) t.ready.(!s) then s := l;
  if r < t.ready_len && ev_lt t.slab t.ready.(r) t.ready.(!s) then s := r;
  if !s <> i then begin
    let tmp = t.ready.(i) in
    t.ready.(i) <- t.ready.(!s);
    t.ready.(!s) <- tmp;
    sift_down t !s
  end

let ready_push t i =
  if t.ready_len >= Array.length t.ready then begin
    let r' = Array.make (2 * t.ready_len) (-1) in
    Array.blit t.ready 0 r' 0 t.ready_len;
    t.ready <- r'
  end;
  t.ready.(t.ready_len) <- i;
  t.ready_len <- t.ready_len + 1;
  sift_up t (t.ready_len - 1)

let ready_pop t =
  let i = t.ready.(0) in
  t.ready_len <- t.ready_len - 1;
  t.ready.(0) <- t.ready.(t.ready_len);
  if t.ready_len > 0 then sift_down t 0;
  i

(* --- Wheel filing ------------------------------------------------------ *)

let slot_insert t l s i =
  let idx = (l lsl slot_bits) lor s in
  t.slab.(i).next <- t.slot_head.(idx);
  t.slot_head.(idx) <- i;
  t.occ.(l) <- t.occ.(l) lor (1 lsl s)

(* File a live record by its key: ready heap when the horizon already
   passed it, else the finest wheel level whose window reaches it, else the
   overflow heap. The helpers that walk levels and chains here and in
   [refill] are top-level functions, not local closures over [t]: filing
   and draining run for every event and allocate nothing. *)
let rec file_from t i key l =
  if l >= levels then Heap.push t.overflow ~key ~seq:t.slab.(i).seq i
  else begin
    let sh = shift l in
    let kt = key lsr sh in
    if kt - (t.horizon lsr sh) < slots then
      slot_insert t l (kt land slot_mask) i
    else file_from t i key (l + 1)
  end

let insert t i =
  let key = t.slab.(i).key in
  if key < t.horizon then ready_push t i else file_from t i key 0

(* --- Cursor advance ---------------------------------------------------- *)

(* Trailing-zero count of a non-zero 32-bit mask (de Bruijn multiply). *)
let debruijn =
  [|
    0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
    21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
  |]

let[@inline] ctz32 m = debruijn.(((m land -m) * 0x077CB531) lsr 27 land 31)

(* Rotate a 32-bit mask right so the cursor's slot lands at bit 0. *)
let[@inline] rotr32 m r = ((m lsr r) lor (m lsl (slots - r))) land 0xFFFFFFFF

(* Start time of the first occupied slot at level [l] — the occupied slot
   whose tick is nearest the cursor going forward; [max_int] when the level
   is empty. The one-rotation invariant makes the reconstruction exact, and
   the slot index is recoverable as [(start lsr shift l) land slot_mask]. *)
let level_candidate t l =
  let m = t.occ.(l) in
  if m = 0 then max_int
  else begin
    let sh = shift l in
    let cursor = t.horizon lsr sh in
    let c = cursor land slot_mask in
    let d = ctz32 (rotr32 m c) in
    (cursor + d) lsl sh
  end

let take_slot t l s =
  let idx = (l lsl slot_bits) lor s in
  let head = t.slot_head.(idx) in
  t.slot_head.(idx) <- -1;
  t.occ.(l) <- t.occ.(l) land lnot (1 lsl s);
  head

(* Move a drained level-0 chain into the ready heap. *)
let rec drain t i =
  if i >= 0 then begin
    let e = t.slab.(i) in
    let nx = e.next in
    e.next <- -1;
    if e.state = s_cancelled then release t i else ready_push t i;
    drain t nx
  end

(* Re-file a cascaded coarse chain at finer levels. *)
let rec redistribute t i =
  if i >= 0 then begin
    let e = t.slab.(i) in
    let nx = e.next in
    e.next <- -1;
    if e.state = s_cancelled then release t i else insert t i;
    redistribute t nx
  end

(* Pull the overflow keys below the horizon into the ready heap. *)
let rec sweep_overflow t =
  match Heap.peek_min t.overflow with
  | Some (k, _, i) when k < t.horizon ->
      ignore (Heap.pop_min t.overflow);
      if t.slab.(i).state = s_cancelled then release t i else ready_push t i;
      sweep_overflow t
  | _ -> ()

(* Move events into the ready heap until it is non-empty or nothing is left
   anywhere. Each round either drains the earliest level-0 slot (advancing
   the horizon past it and sweeping overflow keys the new horizon covers),
   cascades the earliest coarse slot into finer levels, or pulls the next
   overflow event in. Tombstones met along the way are collected. *)
let rec refill t =
  let best_start = ref max_int and best_level = ref (-1) in
  for l = 0 to levels - 1 do
    let start = level_candidate t l in
    (* <=: on equal starts the coarser level must cascade first, since its
       slot covers (a superset of) the finer slot's span. [max_int] can
       never win because a real start fits in 62 bits. *)
    if start <> max_int && start <= !best_start then begin
      best_start := start;
      best_level := l
    end
  done;
  let best_slot =
    if !best_level < 0 then 0
    else (!best_start lsr shift !best_level) land slot_mask
  in
  let ovf_first =
    match Heap.peek_min t.overflow with
    | Some (k, _, _) -> k < !best_start
    | None -> false
  in
  if ovf_first then begin
    match Heap.pop_min t.overflow with
    | Some (k, _, i) ->
        let e = t.slab.(i) in
        if e.state = s_cancelled then begin
          release t i;
          if t.stored > 0 then refill t
        end
        else if k < t.horizon then ready_push t i
        else begin
          (* Jump the cursor to the event's own granule; re-filing then
             lands it at level 0 and the next round drains it. Safe because
             this key is strictly below every occupied slot's start. *)
          t.horizon <- (k lsr g0_bits) lsl g0_bits;
          insert t i;
          refill t
        end
    | None -> assert false
  end
  else if !best_level < 0 then ()
  else if !best_level = 0 then begin
    drain t (take_slot t 0 best_slot);
    t.horizon <- !best_start + (1 lsl g0_bits);
    (* Overflow keys inside the drained granule belong to this round too. *)
    sweep_overflow t;
    if t.ready_len = 0 && t.stored > 0 then refill t
  end
  else begin
    (* Cascade: advance the cursor to the coarse slot's start and re-file
       its chain; every event lands at a finer level (or in ready). *)
    t.horizon <- !best_start;
    redistribute t (take_slot t !best_level best_slot);
    if t.stored > 0 then refill t else ()
  end

(* Collect tombstones surfacing at the ready heap's root, then refill if
   the heap ran dry. Post-condition: the root is a live event, or the wheel
   is completely empty. *)
let rec ensure_ready t =
  if t.ready_len > 0 then begin
    let i = t.ready.(0) in
    if t.slab.(i).state = s_cancelled then begin
      ignore (ready_pop t);
      release t i;
      ensure_ready t
    end
  end
  else if t.stored > 0 then begin
    refill t;
    ensure_ready t
  end

(* --- Public API -------------------------------------------------------- *)

let add t ~key fn =
  let i = acquire t in
  let e = t.slab.(i) in
  e.key <- key;
  e.seq <- t.seq;
  t.seq <- t.seq + 1;
  e.state <- s_pending;
  e.fn <- fn;
  e.next <- -1;
  t.stored <- t.stored + 1;
  insert t i;
  handle_of i e.gen

let cancel t h =
  let i = index_of h in
  if i < t.slab_len then begin
    let e = t.slab.(i) in
    if e.gen = gen_of h && e.state = s_pending then begin
      e.state <- s_cancelled;
      true
    end
    else false
  end
  else false

let advance t now =
  (* Only when fully drained: with events stored, jumping the cursor would
     have to cascade them first, and refill already does that lazily. An
     empty wheel's cursor, however, otherwise stays wherever the last pop
     left it — a run loop that parks the clock far ahead (a shard waiting
     at a barrier) would then file every new event relative to a stale
     horizon and, past the top level's span, spill it into the overflow
     heap. Snapping the horizon to the parked clock keeps barrier-window
     scheduling on the O(1) wheel path. *)
  if t.stored = 0 && t.ready_len = 0 then begin
    let h = (now lsr g0_bits) lsl g0_bits in
    if h > t.horizon then t.horizon <- h
  end

let next_key t =
  ensure_ready t;
  if t.ready_len = 0 then max_int else t.slab.(t.ready.(0)).key

let pop t =
  ensure_ready t;
  if t.ready_len = 0 then invalid_arg "Wheel.pop: nothing pending";
  let i = ready_pop t in
  let e = t.slab.(i) in
  let fn = e.fn in
  release t i;
  fn
