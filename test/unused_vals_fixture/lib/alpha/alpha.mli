(* A tree for test/unused_vals.sh with one planted finding: no call of
   [f] passes [~a], though bin/main.ml passes [~a] to [Beta.g]. *)

val f : ?a:int -> unit -> int
val h : ?b:int -> unit -> int
