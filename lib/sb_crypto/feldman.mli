(** Feldman verifiable secret sharing.

    The dealer publishes commitments C_j = g^{a_j} to the coefficients
    of its Shamir polynomial f(X) = Σ a_j X^j; party i can then check
    its share s_i against the public commitments:

      g^{s_i} =? Π_j C_j^{(i+1)^j}.

    A dealer that passes every check is bound to a unique degree-≤t
    polynomial, hence a unique secret — this binding is what makes the
    CGMA-style protocol simultaneous: corrupted parties' values are
    fixed before any honest value is revealed.

    Feldman commitments leak g^{secret}; the protocols here share
    one-bit secrets *masked* by a random pad shared alongside, so the
    leak carries no information about the bit (see [sb_protocols.Cgma]). *)

type commitment = Modgroup.elt array
(** One group element per coefficient, constant term first; length
    t + 1. *)

val verify_share : commitment -> Shamir.share -> bool
(** The party-side consistency check above. *)

val deal :
  Sb_util.Rng.t ->
  threshold:int ->
  parties:int ->
  secret:Field.t ->
  Shamir.share array * commitment
(** Sharing and committing in one step. *)
