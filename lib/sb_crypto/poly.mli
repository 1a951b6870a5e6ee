(** Polynomials over {!Field}, for Shamir secret sharing.

    A polynomial is its coefficient vector, lowest degree first. The
    zero polynomial is the empty vector; otherwise the leading
    coefficient is non-zero. *)

type t

val of_coeffs : Field.t array -> t
(** Test fixture for {!eval_many}, {!coeffs} and the {!Lagrange}
    cache: a fixed polynomial. Normalises (strips trailing zeros).
    Coefficient 0 is the constant term. Sharing draws its polynomials
    with {!random}. *)

val coeffs : t -> Field.t array
val constant : Field.t -> t

val eval : t -> Field.t -> Field.t
(** Test oracle for {!eval_many}, {!interpolate_at} and the {!Lagrange}
    cache: Horner evaluation at one point. Sharing evaluates with
    {!eval_many}. *)

val eval_many : t -> int -> Field.t array
(** [eval_many p n] evaluates [p] at 1, 2, …, n — the share points of
    an n-party dealing — in a single pass over the coefficients.
    Equals [Array.init n (fun i -> eval p (of_int (i + 1)))]. *)

val random : Sb_util.Rng.t -> degree:int -> constant:Field.t -> t
(** Uniform polynomial of degree at most [degree] with the prescribed
    constant term — exactly the dealer polynomial of Shamir sharing. *)

val interpolate_at : (Field.t * Field.t) list -> Field.t -> Field.t
(** Test oracle for the {!Lagrange} cache ([Shamir.reconstruct],
    [Pedersen.reconstruct]): [interpolate_at pts x0] evaluates the polynomial of degree < the
    number of points that passes through the distinct points [pts] at
    [x0] (direct Lagrange formula); this is the reconstruction step of
    Shamir sharing with x0 = 0. Raises [Invalid_argument] on duplicate
    abscissae. *)
