type t = {
  mutable data : float array;
  mutable size : int;
  mutable sorted_cache : float array option;
}

let create () = { data = [||]; size = 0; sorted_cache = None }

let add t x =
  let capacity = Array.length t.data in
  if t.size >= capacity then begin
    let data' = Array.make (Stdlib.max 16 (2 * capacity)) 0. in
    Array.blit t.data 0 data' 0 t.size;
    t.data <- data'
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sorted_cache <- None

let count t = t.size

let mean t =
  if t.size = 0 then 0.
  else begin
    let sum = ref 0. in
    for i = 0 to t.size - 1 do
      sum := !sum +. t.data.(i)
    done;
    !sum /. float_of_int t.size
  end

let sorted t =
  match t.sorted_cache with
  | Some a -> a
  | None ->
      let a = Array.sub t.data 0 t.size in
      Array.sort Float.compare a;
      t.sorted_cache <- Some a;
      a

let to_array t = Array.sub t.data 0 t.size

let percentile t p =
  if t.size = 0 then invalid_arg "Samples.percentile: empty";
  if p < 0. || p > 1. then invalid_arg "Samples.percentile: p out of range";
  let a = sorted t in
  let n = Array.length a in
  let pos = p *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor pos) in
  if i >= n - 1 then a.(n - 1)
  else begin
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end
