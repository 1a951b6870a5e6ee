(** Pedersen verifiable secret sharing.

    Like {!Feldman}, but perfectly hiding: the dealer commits to the
    coefficients of two polynomials — f (carrying the secret) and f'
    (uniform blinding) — as C_j = g^{a_j} · h^{b_j}, where h is a CRS
    group element whose discrete log w.r.t. g nobody knows. Party i
    holds the share pair (f(i+1), f'(i+1)) and checks

      g^{s_i} · h^{s'_i} =? Π_j C_j^{(i+1)^j}.

    Binding is computational (a dealer opening any point two ways
    yields log_g h); hiding is perfect, so commitments to the bit 0
    and the bit 1 are identically distributed — which is what lets the
    CGMA-style protocol publish commitments before any reveal without
    leaking the bits (Feldman would leak g^bit). *)

type share = { index : int; value : Field.t; blind : Field.t }
type commitment = Modgroup.elt array

type dealt = {
  shares : share array;
  commitment : commitment;
  blind0 : Field.t;  (** f'(0): the dealer's own opening data *)
}

val deal :
  Sb_util.Rng.t -> threshold:int -> parties:int -> secret:Field.t -> dealt

val verify_share : commitment -> share -> bool

val reconstruct : share list -> Field.t
(** Lagrange interpolation of the value components at 0, in any order
    of the shares, via the {!Lagrange} coefficient table keyed by the
    index set; callers must supply at least threshold+1 shares that
    verified against the same commitment. Raises [Invalid_argument] on
    a repeated index. *)

val reconstruct_blind : share list -> Field.t
(** Same, for the blinding components: recovers f'(0). *)
