type t = { n : int; half : int }

let create n =
  if n <= 0 || n mod 2 = 0 then
    invalid_arg "Quasigroup.create: order must be odd and positive";
  (* (n + 1) / 2 is the multiplicative inverse of 2 mod n. *)
  { n; half = (n + 1) / 2 }

let op t x y =
  if x < 0 || x >= t.n || y < 0 || y >= t.n then
    invalid_arg "Quasigroup.op: element out of range";
  (x + y) * t.half mod t.n
