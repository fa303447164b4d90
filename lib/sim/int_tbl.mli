(** Hash tables keyed by [int], with a monomorphic multiplicative hash and
    [int] equality: a lookup calls neither [caml_hash] nor polymorphic
    compare. The per-event and per-packet tables (addresses by
    [Sw_net.Address.index], packed address pairs, VM, group and sequence
    ids) all use it. Iteration follows hash order; a walk whose order
    matters must sort its keys. *)

include Hashtbl.S with type key = int
