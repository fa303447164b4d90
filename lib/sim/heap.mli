(** Binary min-heap keyed by [(int, int)] pairs, compared as immediates.

    The secondary [int] key gives deterministic FIFO ordering among entries
    that share the same primary key; the simulation engine uses it to make
    same-instant events fire in scheduling order. *)

type 'a t

val create : unit -> 'a t

(** [push h ~key ~seq v] inserts [v] with primary key [key] and tiebreak
    [seq]. *)
val push : 'a t -> key:int -> seq:int -> 'a -> unit

(** [pop_min h] removes and returns the minimum entry, or [None] when the
    heap is empty. *)
val pop_min : 'a t -> (int * int * 'a) option

(** [peek_min h] returns the minimum entry without removing it. *)
val peek_min : 'a t -> (int * int * 'a) option
