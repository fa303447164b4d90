type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable size : int }

let create () = { data = [||]; size = 0 }
let length h = h.size
let is_empty h = h.size = 0

let entry_lt a b =
  if a.key <> b.key then a.key < b.key else a.seq < b.seq

let grow h entry =
  let capacity = Array.length h.data in
  if h.size >= capacity then begin
    let capacity' = Stdlib.max 16 (2 * capacity) in
    let data' = Array.make capacity' entry in
    Array.blit h.data 0 data' 0 h.size;
    h.data <- data'
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt h.data.(i) h.data.(parent) then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.size && entry_lt h.data.(left) h.data.(!smallest) then
    smallest := left;
  if right < h.size && entry_lt h.data.(right) h.data.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h ~key ~seq value =
  let entry = { key; seq; value } in
  grow h entry;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let pop_min h =
  if h.size = 0 then None
  else begin
    let root = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some (root.key, root.seq, root.value)
  end

let peek_min h =
  if h.size = 0 then None
  else
    let root = h.data.(0) in
    Some (root.key, root.seq, root.value)
