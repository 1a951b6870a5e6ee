(** Exact probability distributions over {0,1}^n.

    The announced-value spaces in this reproduction are small, so every
    distribution keeps a cumulative table of length 2^n, indexed by
    {!Sb_util.Bitvec.to_int}, for sampling. A general pmf keeps its
    normalised mass table beside it; a product keeps only its marginals
    and the unnormalised total, and reads its mass off the per-entry
    fold (the same floats, see {!bernoulli_product}). {!of_pmf} accepts
    n ≤ {!max_n} = 20: the testers stay at n ≤ ~16, and the auction
    workload's premium lots draw 20-party inputs from a product (one
    table of 2^20 floats, 8 MiB). That makes every quantity the paper's
    definitions mention — marginals, conditionals, projections,
    statistical distance — exactly computable, with sampling reserved
    for protocol executions. A whole-table query on a product builds
    its mass table once per call. *)

type t

val n : t -> int
(** Number of coordinates (parties). *)

val max_n : int
(** The largest supported number of coordinates (20). *)

val of_pmf : int -> float array -> t
(** [of_pmf n pmf] with [0 <= n <= max_n] and [Array.length pmf = 2^n]; validates
    non-negativity and normalises a copy of [pmf] to sum 1. Raises
    [Invalid_argument] on bad input. *)

val pmf : t -> float array
(** Test oracle for {!prob} and {!bernoulli_product}: a copy of the
    mass table, built in one pass for a product, which test_dist
    compares entry by entry with the per-entry fold [prob] reads. *)

val prob : t -> Sb_util.Bitvec.t -> float

val sample : t -> Sb_util.Rng.t -> Sb_util.Bitvec.t
(** Inverse-CDF sampling on a precomputed cumulative table. *)

(* Constructors *)

val uniform : int -> t
(** [uniform n] is [product 0.5 n]: every entry is exactly 2^-n, as
    the normalised all-ones table gives. *)

val singleton : Sb_util.Bitvec.t -> t

val bernoulli_product : float array -> t
(** [bernoulli_product p] has independent coordinates with
    [Pr(x_i = 1) = p.(i)]; raises [Invalid_argument] unless every
    [p.(i)] is in \[0, 1\]. It keeps one 2^n table, the cdf: prefix
    doubling builds the unnormalised entries into it in O(2^n), they
    are summed in index order, and the array is turned into the cdf in
    place. The mass at index i is the per-entry left fold
    [((1.0 *. f_0) *. f_1) ... *. f_(n-1)] over the coordinates'
    factors [f_i = p.(i)] or [1.0 -. p.(i)], divided by that total:
    bit-identical to the table {!of_pmf} would build from the folds. *)

val product : float -> int -> t
(** [product p n]: iid Bernoulli(p) coordinates. *)

val mixture : (float * t) list -> t
(** Convex combination; weights are normalised. All components must
    share the same [n]. *)

val xor_parity : int -> t
(** Uniform over the 2^(n-1) vectors of even parity — the
    canonical strongly correlated distribution: announced values drawn
    from it cannot be independent, so no protocol achieves CR or G
    independence under it (Lemmas 5.2 and 5.4). *)

val copy_pair : int -> t
(** Uniform over vectors with x_0 = x_1 (the rest free): models two
    voters known to vote identically. *)

val noisy_copy : int -> flip:float -> t
(** x_0 uniform; x_1 = x_0 flipped with probability [flip]; the rest
    iid uniform. At [flip = 0.5] this is uniform; below, correlated. *)

val markov : int -> flip:float -> t
(** A two-state Markov chain along the coordinates: x_0 uniform and
    x_{i+1} = x_i flipped with probability [flip]. Models votes with
    neighbourhood influence; a product only at [flip = 0.5]. *)

val one_hot : int -> t
(** Uniform over the n weight-one vectors (exactly one party holds 1):
    maximal negative correlation, far outside every achievable class. *)

val all_equal : int -> t
(** Uniform over \{0…0, 1…1\}: a fully polarised electorate. *)

(* Queries *)

val proj_pmf : t -> int list -> float array
(** Test oracle for {!local_gap} and the constructors' marginals: the
    mass function of the projection x_S onto the given (sorted) index
    set; entry j corresponds to assigning bit l of j to the l-th listed
    index. *)

val cond_proj_pmf : t -> of_:int list -> given:int list -> Sb_util.Bitvec.t -> float array option
(** [cond_proj_pmf d ~of_:s ~given:b w] is the conditional pmf of x_S
    given x_B = (w projected onto B), or [None] if the conditioning
    event has zero mass. [w] supplies values on the coordinates in
    [given] (its other coordinates are ignored). *)

val tvd : t -> t -> float
(** Test oracle for the constructors ({!noisy_copy}, {!markov},
    {!bernoulli_product}) and {!independence_gap}: total variation
    distance (half L1). *)

val local_gap : t -> float
(** The paper's local-independence deficiency (§5.2): the maximum over
    nonempty proper subsets B, strings u, and strings w of positive
    conditional mass, of |Pr(x_B = u | x_B̄ = w) − Pr(x_B = u)|. Zero
    exactly on product distributions. One pass per B buckets the mass
    by its assignment on B̄, O(4ⁿ) in all; every gap is bit-identical
    to the one {!cond_proj_pmf} and {!proj_pmf} give. *)

val independence_gap : t -> float
(** TVD to the product of this distribution's own marginals — an upper
    proxy for the distance to the nearest independent distribution
    (within a factor n+1 of it), used for Ψ_C classification. *)
