(** Order statistics of independent (not necessarily identical) random
    variables — the machinery behind StopWatch's median analysis
    (paper Appendix, citing Güngör et al., Result 2.4). *)

(** Closed-form CDF of the median of three independent variables:
    F1 F2 + F1 F3 + F2 F3 - 2 F1 F2 F3, clamped to [[0, 1]]. *)
val median3 :
  (float -> float) -> (float -> float) -> (float -> float) -> float -> float

(** [median_dist dists] packages the CDF of the median of [m] independent
    variables as a {!Dist.t} whose sampler draws from each component and
    takes the sample median. The CDF is the rank [r = (m+1)/2] case of

    F_(r:m)(x) = sum over l = r..m of (-1)^(l-r) C(l-1, r-1)
                 times the sum over size-l subsets I of prod_(i in I) F_i(x)

    and {!median3} when [m = 3]. Odd length required. *)
val median_dist : Dist.t array -> Dist.t

(** Median of three via a branch network of int compares (no allocation,
    no polymorphic compare). *)
val median3_int : int -> int -> int -> int

(** Sample median of an odd-length int array. Lengths 1, 3 and 5 — the
    replica vote counts — go through the branch networks without touching
    the allocator; longer odd arrays fall back to copy + sort. Raises
    [Invalid_argument] for even lengths; does not modify its argument. *)
val median_int : int array -> int
