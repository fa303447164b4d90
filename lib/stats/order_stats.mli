(** Order statistics of independent (not necessarily identical) random
    variables — the machinery behind StopWatch's median analysis
    (paper Appendix, citing Güngör et al., Result 2.4). *)

(** [cdf_rank ~cdfs ~r] is the CDF of the [r]-th smallest of the [m]
    independent variables whose CDFs are [cdfs] (1-indexed rank):

    F_(r:m)(x) = sum over l = r..m of (-1)^(l-r) C(l-1, r-1)
                 times the sum over size-l subsets I of prod_(i in I) F_i(x)

    Raises [Invalid_argument] unless [1 <= r <= m]. *)
val cdf_rank : cdfs:(float -> float) array -> r:int -> float -> float

(** Closed-form CDF of the median of three independent variables:
    F1 F2 + F1 F3 + F2 F3 - 2 F1 F2 F3. *)
val median3 :
  (float -> float) -> (float -> float) -> (float -> float) -> float -> float

(** [median ~cdfs] is the CDF of the median of an odd number of independent
    variables ([r = (m+1)/2]). Raises [Invalid_argument] for even [m]. *)
val median : cdfs:(float -> float) array -> float -> float

(** [median_dist dists] packages {!median} as a {!Dist.t} whose sampler draws
    from each component and takes the sample median. Odd length required. *)
val median_dist : Dist.t array -> Dist.t

(** Sample median of an odd-length array (does not modify its argument). *)
val sample_median : float array -> float

(** Median of three via a branch network of int compares (no allocation,
    no polymorphic compare). *)
val median3_int : int -> int -> int -> int

(** Median of five via a 6-compare network (no allocation). *)
val median5_int : int -> int -> int -> int -> int -> int

(** Sample median of an odd-length int array. Lengths 1, 3 and 5 — the
    replica vote counts — go through the branch networks without touching
    the allocator; longer odd arrays fall back to copy + sort. Raises
    [Invalid_argument] for even lengths; does not modify its argument. *)
val median_int : int array -> int
