(** The order-q subgroup of Z_P* with P = 2q + 1 = 2147483579 and
    q = {!Field.p} — i.e. the group of quadratic residues mod the safe
    prime P, generated by g = 4.

    Exponents live in {!Field} (arithmetic mod q), group elements in
    [0, P). This is the discrete-log group backing {!Feldman}
    verifiable secret sharing. Parameters are small by cryptographic
    standards — the adversaries in this reproduction are simulated
    strategies, not real attackers — but the algebra is exact.

    The two shared generators, g and h = 9 (a fixed quadratic residue,
    the Pedersen CRS element whose discrete log w.r.t. g nobody knows),
    carry fixed-base windowed precomputation (4-bit windows over the
    30-bit exponent range, built once at module init and read-only
    thereafter, so safe under sb_par domain parallelism): {!pow_g},
    {!pow} at g or h and the fused {!pow_gh} cost a handful of
    table-lookup multiplies instead of a full square-and-multiply
    ladder. Every other base runs the ladder in Montgomery form over
    R = 2^31 (an element x carried as x*R mod P, REDC trading the
    division for three multiplications); {!horner} stays in that form
    across the whole polynomial and converts back once. *)

type elt = private int

val g : elt
(** Generator of the order-q subgroup (g = 4). *)

val h : elt
(** Test fixture for the fixed-base h table behind {!pow} and
    {!pow_gh}: the second shared generator. *)

val pow : elt -> Field.t -> elt
(** [pow b e]: group exponentiation with a field exponent,
    value-identical to {!pow_naive}. The shared generators g and h
    route to their fixed-base window tables; every other base runs a
    square-and-multiply ladder in Montgomery form. *)

val pow_naive : elt -> Field.t -> elt
(** Test oracle for {!pow}, {!pow_g}, {!pow_gh} and {!horner}: the
    division-based square-and-multiply ladder the Montgomery and
    fixed-base paths are property-tested against. *)

val mul : elt -> elt -> elt
(** Test oracle for the Montgomery products inside {!pow} and
    {!horner}: the division-based product mod P. *)

val pow_g : Field.t -> elt
(** [pow_g e] = g^e via the fixed-base window table. *)

val pow_gh : Field.t -> Field.t -> elt
(** [pow_gh a b] = g^a · h^b, fused over both tables in one pass —
    the Pedersen commitment hot path. *)

val horner : elt array -> Field.t -> elt
(** [horner c x] = Π_j c.(j)^(x^j), Horner-style in the exponent —
    the commitment a Pedersen or Feldman share at evaluation point [x]
    must match. *)

val equal : elt -> elt -> bool
val is_member : int -> bool
(** True iff the integer is in [1, P) and lies in the subgroup. *)

val of_int_exn : int -> elt
(** Checked injection; raises [Invalid_argument] on non-members. *)

val to_int : elt -> int
val pp : Format.formatter -> elt -> unit
