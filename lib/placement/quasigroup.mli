(** Idempotent commutative quasigroups of odd order, the ingredient of
    Bose's Steiner-triple-system construction (paper Sec. VIII, Thm. 2). *)

type t

(** [create n] builds the standard idempotent commutative quasigroup on
    [Z_n] for odd [n]: [x * y = ((x + y) * (n + 1) / 2) mod n]. Raises
    [Invalid_argument] for even or non-positive [n]. *)
val create : int -> t

(** [op q x y] applies the quasigroup operation. Arguments must lie in
    [[0, order)]. *)
val op : t -> int -> int -> int
