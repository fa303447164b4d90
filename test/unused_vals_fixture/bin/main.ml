(* [~a] reaches [Beta.g] through an alias and [~b] reaches [Alpha.h] in a
   scope that opens Alpha; [Alpha.f] is called bare. *)
module B = Beta

let () = print_int (Alpha.f () + B.g ~a:1 ())
let () = Alpha.(print_int (h ~b:2 ()))
