type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000
let of_float_s x = int_of_float (Float.round (x *. 1e9))
let of_float_ms x = int_of_float (Float.round (x *. 1e6))
let to_float_s t = float_of_int t /. 1e9
let to_float_ms t = float_of_int t /. 1e6
let to_float_us t = float_of_int t /. 1e3
let add = Stdlib.( + )
let sub = Stdlib.( - )
let mul_int t n = t * n
let div_int t n = t / n
let scale t x = int_of_float (Float.round (float_of_int t *. x))
let compare = Int.compare
let equal = Int.equal
let min (a : t) b = if a <= b then a else b
let max (a : t) b = if a >= b then a else b
let is_negative t = t < 0
let ( + ) = add
let ( - ) = sub
let ( < ) (a : t) b = a < b
let ( <= ) (a : t) b = a <= b
let ( > ) (a : t) b = a > b
let ( >= ) (a : t) b = a >= b

let pp fmt t =
  let f = float_of_int t in
  let af = Float.abs f in
  if Stdlib.( < ) af 1e3 then Format.fprintf fmt "%dns" t
  else if Stdlib.( < ) af 1e6 then Format.fprintf fmt "%.3fus" (f /. 1e3)
  else if Stdlib.( < ) af 1e9 then Format.fprintf fmt "%.3fms" (f /. 1e6)
  else Format.fprintf fmt "%.3fs" (f /. 1e9)

let to_string t = Format.asprintf "%a" pp t
