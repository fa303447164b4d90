(* Hierarchical timer wheel + overflow heap over a pool of reusable event
   records. See wheel.mli for the tier layout and the ordering argument.

   Keys are {!Time.t} nanoseconds, immediate ints: simulated time is
   non-negative and bounded by 2^62 ns (~146 years), so the hot paths run
   on int compares and shifts and allocate nothing. The overflow heap is
   keyed by the same ints.

   Invariants, maintained by every operation:

   - [horizon] is a multiple of the level-0 granule. Every pending record
     with [key < horizon] sits in the ready heap; the wheel slots and the
     overflow heap only hold records with [key >= horizon].
   - An event files at the finest level [l] whose cursor tick it is within
     [slots] ticks of, so at every level the live ticks span at most one
     rotation: the absolute tick of an occupied slot is recoverable from the
     cursor and the slot index alone.
   - [horizon] never passes the start of a non-empty slot or an overflow
     key without first moving its events into finer levels or the ready
     heap. Slot starts at every level are multiples of the level-0 granule,
     so draining one level-0 slot and advancing [horizon] to its end cannot
     step over a coarser slot's start.

   The ready heap compares [(key, seq)] read straight from the int arrays,
   so no ordering responsibility rests on slot chain order — chains are
   prepend-only and cascades may reverse them freely. *)

let slot_bits = 5
let slots = 1 lsl slot_bits
let slot_mask = slots - 1
let g0_bits = 13 (* level-0 granule: 8192 ns *)
let levels = 6 (* top level span: 2^(13 + 5*6) ns ~ 2.4 h *)
let shift l = g0_bits + (slot_bits * l)
let dummy_fn () = ()

(* Record [i] is [key.(i)], [seq.(i)], [next.(i)] and [fn.(i)]: parallel
   arrays, so the ints are read without touching a block and a record
   costs no header. *)
type t = {
  mutable key : int array;
  mutable seq : int array;
  mutable next : int array;  (* slot chain / free list link; -1 terminates *)
  mutable fn : (unit -> unit) array;
  mutable records : int;  (* records ever handed out: a prefix of the arrays *)
  mutable free_head : int;
  mutable next_seq : int;
  mutable horizon : int;
  slot_head : int array;  (* levels * slots chain heads, -1 = empty *)
  occ : int array;  (* per-level occupancy bitmask over slot indices *)
  mutable occ_levels : int;  (* bit [l] set iff [occ.(l) <> 0] *)
  mutable ready : int array;  (* binary heap of record indices *)
  mutable ready_len : int;
  overflow : int Heap.t;
  mutable overflow_len : int;
}

let create () =
  {
    key = [||];
    seq = [||];
    next = [||];
    fn = [||];
    records = 0;
    free_head = -1;
    next_seq = 0;
    horizon = 0;
    slot_head = Array.make (levels * slots) (-1);
    occ = Array.make levels 0;
    occ_levels = 0;
    ready = Array.make 64 (-1);
    ready_len = 0;
    overflow = Heap.create ();
    overflow_len = 0;
  }

(* --- Record pool ------------------------------------------------------- *)

let extend a cap fill =
  let a' = Array.make cap fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let acquire t =
  if t.free_head >= 0 then begin
    let i = t.free_head in
    t.free_head <- t.next.(i);
    i
  end
  else begin
    if t.records = Array.length t.key then begin
      let cap = Stdlib.max 64 (2 * t.records) in
      t.key <- extend t.key cap 0;
      t.seq <- extend t.seq cap 0;
      t.next <- extend t.next cap (-1);
      t.fn <- extend t.fn cap dummy_fn
    end;
    let i = t.records in
    t.records <- i + 1;
    i
  end

(* Recycle a record: drop the closure so it can be collected, and chain
   onto the free list. *)
let release t i =
  t.fn.(i) <- dummy_fn;
  t.next.(i) <- t.free_head;
  t.free_head <- i

(* --- Ready heap (record indices ordered by (key, seq)) ----------------- *)

let[@inline] before t i j =
  let ki = t.key.(i) and kj = t.key.(j) in
  ki < kj || (ki = kj && t.seq.(i) < t.seq.(j))

(* The sifts move a hole instead of swapping: [sift_up] writes [i] once,
   where the hole stops. *)
let rec sift_up t i h =
  if h > 0 then begin
    let p = (h - 1) / 2 in
    let j = t.ready.(p) in
    if before t i j then begin
      t.ready.(h) <- j;
      sift_up t i p
    end
    else t.ready.(h) <- i
  end
  else t.ready.(h) <- i

(* Pop's half (Floyd's bottom-up variant): walk the hole from [h] down to
   a leaf along the lesser children, one compare per level, and return the
   leaf; the popped heap's last record then sifts up from there, which is
   rarely more than a level or two. *)
let rec hole_down t h =
  let c = (2 * h) + 1 in
  if c >= t.ready_len then h
  else begin
    let c =
      if c + 1 < t.ready_len && before t t.ready.(c + 1) t.ready.(c) then c + 1
      else c
    in
    t.ready.(h) <- t.ready.(c);
    hole_down t c
  end

let ready_push t i =
  if t.ready_len = Array.length t.ready then
    t.ready <- extend t.ready (2 * t.ready_len) (-1);
  t.ready_len <- t.ready_len + 1;
  sift_up t i (t.ready_len - 1)

let ready_pop t =
  let i = t.ready.(0) in
  t.ready_len <- t.ready_len - 1;
  if t.ready_len > 0 then sift_up t t.ready.(t.ready_len) (hole_down t 0);
  i

(* --- Wheel filing ------------------------------------------------------ *)

let slot_insert t l s i =
  let idx = (l lsl slot_bits) lor s in
  t.next.(i) <- t.slot_head.(idx);
  t.slot_head.(idx) <- i;
  t.occ.(l) <- t.occ.(l) lor (1 lsl s);
  t.occ_levels <- t.occ_levels lor (1 lsl l)

(* File a record by its key: ready heap when the horizon already passed
   it, else the finest wheel level whose window reaches it, else the
   overflow heap. The helpers that walk levels and chains here and in
   [refill] are top-level functions, not local closures over [t]: filing
   and draining run for every event and allocate nothing. *)
let rec file_from t i key l =
  if l >= levels then begin
    Heap.push t.overflow ~key ~seq:t.seq.(i) i;
    t.overflow_len <- t.overflow_len + 1
  end
  else begin
    let sh = shift l in
    let kt = key lsr sh in
    if kt - (t.horizon lsr sh) < slots then
      slot_insert t l (kt land slot_mask) i
    else file_from t i key (l + 1)
  end

let insert t i =
  let key = t.key.(i) in
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

(* Start time of the first occupied slot at non-empty level [l] — the
   occupied slot whose tick is nearest the cursor going forward. The
   one-rotation invariant makes the reconstruction exact, and the slot
   index is recoverable as [(start lsr shift l) land slot_mask]. *)
let level_start t l =
  let sh = shift l in
  let cursor = t.horizon lsr sh in
  let d = ctz32 (rotr32 t.occ.(l) (cursor land slot_mask)) in
  (cursor + d) lsl sh

let take_slot t l s =
  let idx = (l lsl slot_bits) lor s in
  let head = t.slot_head.(idx) in
  t.slot_head.(idx) <- -1;
  let m = t.occ.(l) land lnot (1 lsl s) in
  t.occ.(l) <- m;
  if m = 0 then t.occ_levels <- t.occ_levels land lnot (1 lsl l);
  head

(* Move a drained level-0 chain into the ready heap. *)
let rec drain t i =
  if i >= 0 then begin
    let nx = t.next.(i) in
    ready_push t i;
    drain t nx
  end

(* Re-file a cascaded coarse chain at finer levels. *)
let rec redistribute t i =
  if i >= 0 then begin
    let nx = t.next.(i) in
    insert t i;
    redistribute t nx
  end

(* The overflow heap's least key, [max_int] when it is empty. *)
let overflow_min t =
  if t.overflow_len = 0 then max_int
  else match Heap.peek_min t.overflow with Some (k, _, _) -> k | None -> max_int

let overflow_pop t =
  match Heap.pop_min t.overflow with
  | Some (_, _, i) ->
      t.overflow_len <- t.overflow_len - 1;
      i
  | None -> assert false

(* Pull the overflow keys below the horizon into the ready heap. *)
let rec sweep_overflow t =
  if overflow_min t < t.horizon then begin
    ready_push t (overflow_pop t);
    sweep_overflow t
  end

(* Move events into the ready heap until it is non-empty or nothing is left
   anywhere. Each round either drains the earliest level-0 slot (advancing
   the horizon past it and sweeping overflow keys the new horizon covers),
   cascades the earliest coarse slot into finer levels, or pulls the next
   overflow event in. Only the non-empty levels are visited. *)
let rec refill t =
  let best_start = ref max_int and best_level = ref (-1) in
  let m = ref t.occ_levels in
  while !m <> 0 do
    let l = ctz32 !m in
    m := !m land (!m - 1);
    let start = level_start t l in
    (* <=, visiting levels finest first: on equal starts the coarser level
       must cascade first, since its slot covers (a superset of) the finer
       slot's span. *)
    if start <= !best_start then begin
      best_start := start;
      best_level := l
    end
  done;
  let l = !best_level and start = !best_start in
  if overflow_min t < start then begin
    let i = overflow_pop t in
    let k = t.key.(i) in
    if k < t.horizon then ready_push t i
    else begin
      (* Jump the cursor to the event's own granule; re-filing then lands
         it at level 0 and the next round drains it. Safe because this key
         is strictly below every occupied slot's start. *)
      t.horizon <- (k lsr g0_bits) lsl g0_bits;
      insert t i;
      refill t
    end
  end
  else if l = 0 then begin
    (* A drained slot is never empty, so the ready heap is filled. *)
    drain t (take_slot t 0 ((start lsr g0_bits) land slot_mask));
    t.horizon <- start + (1 lsl g0_bits);
    (* Overflow keys inside the drained granule belong to this round too. *)
    sweep_overflow t
  end
  else if l > 0 then begin
    (* Cascade: advance the cursor to the coarse slot's start and re-file
       its chain; every event lands at a finer level (or in ready). *)
    t.horizon <- start;
    redistribute t (take_slot t l ((start lsr shift l) land slot_mask));
    refill t
  end

(* --- Public API -------------------------------------------------------- *)

let add t ~key fn =
  let i = acquire t in
  t.key.(i) <- key;
  t.seq.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.fn.(i) <- fn;
  insert t i

let advance t now =
  (* Only when fully drained: with events stored, jumping the cursor would
     have to cascade them first, and refill already does that lazily. An
     empty wheel's cursor, however, otherwise stays wherever the last pop
     left it — a run loop that parks the clock far ahead (a shard waiting
     at a barrier) would then file every new event relative to a stale
     horizon and, past the top level's span, spill it into the overflow
     heap. Snapping the horizon to the parked clock keeps barrier-window
     scheduling on the O(1) wheel path. *)
  if t.ready_len = 0 && t.occ_levels = 0 && t.overflow_len = 0 then begin
    let h = (now lsr g0_bits) lsl g0_bits in
    if h > t.horizon then t.horizon <- h
  end

let next_key t =
  if t.ready_len = 0 && (t.occ_levels <> 0 || t.overflow_len > 0) then
    refill t;
  if t.ready_len = 0 then max_int else t.key.(t.ready.(0))

let pop t =
  if next_key t = max_int then invalid_arg "Wheel.pop: nothing pending";
  let i = ready_pop t in
  let fn = t.fn.(i) in
  release t i;
  fn
