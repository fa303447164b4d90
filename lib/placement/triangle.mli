(** Triangles (3-subsets of machine indices) and their edges.

    A triangle records where the three replicas of one guest VM live; the
    StopWatch constraint — replicas of a VM coreside with nonoverlapping sets
    of (replicas of) other VMs — is exactly pairwise edge-disjointness of the
    triangles. *)

type t = private { a : int; b : int; c : int }
(** Invariant: [a < b < c]. *)

(** Raises [Invalid_argument] when vertices are not pairwise distinct. *)
val make : int -> int -> int -> t

val vertices : t -> int list

(** The three edges, each as an ordered pair [(lo, hi)]. *)
val edges : t -> (int * int) list

(** [edge_disjoint ts] checks pairwise edge-disjointness of a whole list in
    O(total edges). *)
val edge_disjoint : t list -> bool
