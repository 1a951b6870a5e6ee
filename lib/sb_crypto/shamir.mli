(** Shamir (t, n) threshold secret sharing over {!Field}.

    Party i ∈ {0, …, n−1} holds the share f(i+1) of a uniformly random
    degree-t polynomial f with f(0) = secret. Any t+1 shares reconstruct;
    any t shares are statistically independent of the secret. This is
    the sharing layer underneath the CGMA-style simultaneous broadcast
    protocol ([Cgma] in [sb_protocols]). *)

type share = { index : int; value : Field.t }
(** [index] is the party id (0-based); the evaluation point is
    [index + 1] so that the secret sits at 0. *)

val share :
  Sb_util.Rng.t -> threshold:int -> parties:int -> secret:Field.t -> share array * Poly.t
(** [share rng ~threshold:t ~parties:n ~secret] returns one share per
    party and the dealer polynomial (degree ≤ t; needed by Feldman
    commitments). Requires 0 <= t < n and n < {!Field.p}. *)

val reconstruct : share list -> Field.t
(** Lagrange reconstruction at 0, in any order of the shares, via the
    {!Lagrange} coefficient table keyed by the index-set bitmask (the
    basis vector is computed once per distinct index set). Requires
    at least [threshold + 1] shares from the original sharing
    (not checked here — verifiability is {!Feldman}'s job); duplicate
    indices are rejected. *)

val reconstruct_poly : share list -> Poly.t
(** Full polynomial through the given shares (for consistency checks in
    tests). *)

val eval_point : int -> Field.t
(** The field point assigned to a party index. *)
