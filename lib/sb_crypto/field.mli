(** The prime field GF(p) with p = 1073741789, a Sophie Germain prime:
    2p + 1 = 2147483579 is also prime, so {!Modgroup} has a subgroup of
    exactly this order and Shamir share arithmetic (here) matches
    Feldman exponent arithmetic (there).

    A 30-bit modulus keeps every product inside OCaml's 63-bit native
    integers, so no external bignum dependency is needed. Elements are
    represented canonically as ints in [0, p). *)

type t = private int

val p : int
(** The modulus, 1073741789. *)

val zero : t
val one : t

val of_int : int -> t
(** Reduces any int (including negatives) into [0, p). *)

val to_int : t -> int
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val inv : t -> t
(** Multiplicative inverse; raises [Division_by_zero] on zero. *)

val div : t -> t -> t

val equal : t -> t -> bool
val random : Sb_util.Rng.t -> t
(** Uniform over the whole field. *)

val pp : Format.formatter -> t -> unit
