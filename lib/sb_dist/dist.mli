(** Exact probability distributions over {0,1}^n.

    The announced-value spaces in this reproduction are small, so
    distributions are stored as full probability mass arrays of length
    2^n, indexed by {!Sb_util.Bitvec.to_int}. {!of_pmf} accepts
    n ≤ 20: the testers stay at n ≤ ~16, and the auction workload's
    premium lots draw 20-party inputs (a mass and a cdf table of 2^20
    floats, 8 MiB each). That
    makes every quantity the paper's definitions mention — marginals,
    conditionals, projections, statistical distance — exactly
    computable, with sampling reserved for protocol executions. *)

type t

val n : t -> int
(** Number of coordinates (parties). *)

val of_pmf : int -> float array -> t
(** [of_pmf n pmf] with [Array.length pmf = 2^n]; validates
    non-negativity and normalises to sum 1. Raises [Invalid_argument]
    on bad input. *)

val pmf : t -> float array
(** A copy of the mass array. *)

val prob : t -> Sb_util.Bitvec.t -> float
val prob_idx : t -> int -> float

val sample : t -> Sb_util.Rng.t -> Sb_util.Bitvec.t
(** Inverse-CDF sampling on a precomputed cumulative table. *)

val support : t -> Sb_util.Bitvec.t list
(** Vectors of strictly positive mass. *)

(* Constructors *)

val uniform : int -> t
val singleton : Sb_util.Bitvec.t -> t

val bernoulli_product : float array -> t
(** [bernoulli_product p] has independent coordinates with
    [Pr(x_i = 1) = p.(i)]. The table is built in O(2^n) by prefix
    doubling, and every entry is bit-identical to the per-entry left
    fold [((1.0 *. f_0) *. f_1) ... *. f_(n-1)] over the coordinates'
    factors [f_i = p.(i)] or [1.0 -. p.(i)]. *)

val product : float -> int -> t
(** [product p n]: iid Bernoulli(p) coordinates. *)

val mixture : (float * t) list -> t
(** Convex combination; weights are normalised. All components must
    share the same [n]. *)

val xor_parity : ?even:bool -> int -> t
(** Uniform over the 2^(n-1) vectors of even (resp. odd) parity — the
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

val conditioned : t -> on:(Sb_util.Bitvec.t -> bool) -> t
(** Restriction + renormalisation. Raises [Invalid_argument] if the
    event has zero mass. *)

(* Queries *)

val marginal : t -> int -> float
(** [Pr(x_i = 1)]. *)

val marginals : t -> float array
val product_of_marginals : t -> t

val proj_pmf : t -> int list -> float array
(** Mass function of the projection x_S onto the given (sorted) index
    set; entry j corresponds to assigning bit l of j to the l-th listed
    index. *)

val cond_proj_pmf : t -> of_:int list -> given:int list -> Sb_util.Bitvec.t -> float array option
(** [cond_proj_pmf d ~of_:s ~given:b w] is the conditional pmf of x_S
    given x_B = (w projected onto B), or [None] if the conditioning
    event has zero mass. [w] supplies values on the coordinates in
    [given] (its other coordinates are ignored). *)

val tvd : t -> t -> float
(** Total variation distance (half L1). *)

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

val is_product : ?tol:float -> t -> bool
val equal : ?tol:float -> t -> t -> bool
val entropy_bits : t -> float
val pp : Format.formatter -> t -> unit
