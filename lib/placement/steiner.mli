(** Bose's construction of Steiner triple systems on [n = 6v + 3] points
    (paper Thm. 2 proof), organised into the triangle groups G_0 .. G_v used
    by the capacity-constrained placement algorithm. *)

(** [groups ~v] returns [[| G_0; G_1; ...; G_v |]]:
    - [G_0] has [2v + 1] triangles, visiting every node exactly once;
    - each [G_t], [t >= 1], has [6v + 3] triangles, visiting every node
      exactly three times;
    - all triangles across all groups are pairwise edge-disjoint.
    Raises [Invalid_argument] for [v < 1]. *)
val groups : v:int -> Triangle.t list array

(** [partial_gv ~v] is the sub-family of [G_v] from the Thm. 2 proof's
    [c = 2 mod 3] case: [v] triangles that visit each node at most once. *)
val partial_gv : v:int -> Triangle.t list
