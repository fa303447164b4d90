(** Hash tables keyed by [int], with a multiplicative hash and [int]
    equality compiled inline: a lookup calls neither [caml_hash], nor
    polymorphic compare, nor a functor argument. The per-event and
    per-packet tables (addresses by [Sw_net.Address.index], packed address
    pairs, VM, group, connection, request and sequence ids) all use it.

    The table is Stdlib's [Hashtbl] specialised to [int] keys, so a given
    sequence of {!add}, {!replace}, {!remove} and {!reset} leaves the same
    bindings in the same order as [Hashtbl.Make] with the hash
    [fun k -> let h = k * 0x2545F4914F6CDD1D in h lxor (h lsr 32)].
    Iteration follows that hash order; a walk whose order matters must sort
    its keys. [f] in {!iter} and {!fold} must not add to the table it
    walks. *)

type 'a t

(** [create n] is an empty table sized for about [n] bindings. *)
val create : int -> 'a t

(** [add t k v] binds [k] to [v], hiding any earlier binding of [k]. *)
val add : 'a t -> int -> 'a -> unit

(** [replace t k v] rebinds the most recent binding of [k], or adds one. *)
val replace : 'a t -> int -> 'a -> unit

(** [remove t k] removes the most recent binding of [k], if any. *)
val remove : 'a t -> int -> unit

(** [find t k] is the most recent binding of [k]; raises [Not_found]. *)
val find : 'a t -> int -> 'a

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool
val length : 'a t -> int

(** Empties the table and shrinks it back to its initial size. *)
val reset : 'a t -> unit

val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
