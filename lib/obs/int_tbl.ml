(* Stdlib's [Hashtbl] algorithm with the key type fixed to [int]: chained
   buckets in a power-of-two array, insertion at the head of a chain, a
   resize that doubles the array once there are more than two bindings per
   bucket and keeps each chain's order, and a [reset] back to the initial
   array. The same operations on the same keys therefore leave the same
   chains as [Hashtbl.Make] with [index]'s hash, so [iter] and [fold] visit
   bindings in the same order. Written out rather than taken from the
   functor so the hash and the [int] equality compile inline: a functor's
   argument is reached through an indirect call on every lookup. *)

type 'a bucket =
  | Empty
  | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mutable size : int;
  mutable data : 'a bucket array;
  initial_size : int;
}

(* The odd multiplier carries every key bit upward through the product; the
   shift folds the high half back into the low bits the table masks with,
   so keys that differ only above bit 31 (the source half of a packed
   address pair) still spread. *)
let[@inline] index data key =
  let h = key * 0x2545_F491_4F6C_DD1D in
  (h lxor (h lsr 32)) land (Array.length data - 1)

let rec power_2_above x n =
  if x >= n || x * 2 > Sys.max_array_length then x else power_2_above (x * 2) n

let create n =
  let s = power_2_above 16 n in
  { size = 0; data = Array.make s Empty; initial_size = s }

let length t = t.size

let reset t =
  t.size <- 0;
  if Array.length t.data = t.initial_size then
    Array.fill t.data 0 t.initial_size Empty
  else t.data <- Array.make t.initial_size Empty

(* Appends each cell of a chain, in order, to the tail of its new bucket;
   [tails] holds each new bucket's last cell. *)
let rec rehash ndata tails = function
  | Empty -> ()
  | Cons c as cell ->
      let next = c.next in
      let i = index ndata c.key in
      (match tails.(i) with
      | Empty -> ndata.(i) <- cell
      | Cons tail -> tail.next <- cell);
      tails.(i) <- cell;
      rehash ndata tails next

let resize t =
  let odata = t.data in
  let nsize = Array.length odata * 2 in
  if nsize < Sys.max_array_length then begin
    let ndata = Array.make nsize Empty and tails = Array.make nsize Empty in
    t.data <- ndata;
    Array.iter (rehash ndata tails) odata;
    Array.iter (function Empty -> () | Cons c -> c.next <- Empty) tails
  end

let add t key data =
  let i = index t.data key in
  t.data.(i) <- Cons { key; data; next = t.data.(i) };
  t.size <- t.size + 1;
  if t.size > Array.length t.data lsl 1 then resize t

let rec remove_in t i key prev = function
  | Empty -> ()
  | Cons c as cell ->
      if c.key = key then begin
        t.size <- t.size - 1;
        match prev with
        | Empty -> t.data.(i) <- c.next
        | Cons p -> p.next <- c.next
      end
      else remove_in t i key cell c.next

let remove t key =
  let i = index t.data key in
  remove_in t i key Empty t.data.(i)

let rec find_in key = function
  | Empty -> raise Not_found
  | Cons c -> if c.key = key then c.data else find_in key c.next

(* [find] and [find_opt] test a chain's first cell before the loop: most
   lookups end there, without a call. They, [mem] and [index] are marked
   [@inline] because they run per event, while the rest of sw_obs is cold
   and is compiled without the event-path libraries' -inline 200. *)
let[@inline] find t key =
  match t.data.(index t.data key) with
  | Empty -> raise Not_found
  | Cons c -> if c.key = key then c.data else find_in key c.next

let rec find_opt_in key = function
  | Empty -> None
  | Cons c -> if c.key = key then Some c.data else find_opt_in key c.next

let[@inline] find_opt t key =
  match t.data.(index t.data key) with
  | Empty -> None
  | Cons c -> if c.key = key then Some c.data else find_opt_in key c.next

let rec mem_in key = function
  | Empty -> false
  | Cons c -> c.key = key || mem_in key c.next

let[@inline] mem t key = mem_in key t.data.(index t.data key)

(* Overwrites the first binding of [key] and returns [false], or returns
   [true] when the chain has none. *)
let rec replace_in key data = function
  | Empty -> true
  | Cons c ->
      if c.key = key then begin
        c.data <- data;
        false
      end
      else replace_in key data c.next

let replace t key data =
  let i = index t.data key in
  let chain = t.data.(i) in
  if replace_in key data chain then begin
    t.data.(i) <- Cons { key; data; next = chain };
    t.size <- t.size + 1;
    if t.size > Array.length t.data lsl 1 then resize t
  end

let rec iter_chain f = function
  | Empty -> ()
  | Cons c ->
      f c.key c.data;
      iter_chain f c.next

let iter f t = Array.iter (iter_chain f) t.data

let rec fold_chain f chain acc =
  match chain with
  | Empty -> acc
  | Cons c -> fold_chain f c.next (f c.key c.data acc)

let fold f t init = Array.fold_left (fun acc chain -> fold_chain f chain acc) init t.data
