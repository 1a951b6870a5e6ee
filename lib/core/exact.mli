(** Exact (non-sampled) evaluation of the CR and G quantities, for
    protocol/adversary pairs whose announced-value distribution is
    known in closed form.

    For several executions in this repository the map from the input
    vector x to the announced vector W is a simple transformation:

    - any protocol under the passive adversary: W = x;
    - naive sequential/concurrent under the echo adversary:
      W = x with coordinate [copier] replaced by x_target;
    - Π_G under A*: W = x with the two corrupted coordinates replaced
      by (r, r ⊕ y) for a fresh uniform coin r;
    - VSS protocols under input substitution: W = x with corrupted
      coordinates replaced by the substituted values.

    Pushing the input distribution through such a transformation gives
    the EXACT announced-value distribution, from which the gap of
    Definition 4.3 (CR) and Definition 4.4 (G) can be computed to
    machine precision. The test suite uses these to calibrate the
    Monte-Carlo testers: sampled estimates must agree with the exact
    values within their confidence intervals, and experiment tables can
    cite exact constants (the 1/4 of Lemma 6.4, for instance) rather
    than estimates. *)

val push_deterministic : Sb_dist.Dist.t -> (Sb_util.Bitvec.t -> Sb_util.Bitvec.t) -> Sb_dist.Dist.t
(** Exact pushforward of the input distribution through a
    deterministic announced-value map. *)

val push_coin :
  Sb_dist.Dist.t -> (coin:bool -> Sb_util.Bitvec.t -> Sb_util.Bitvec.t) -> Sb_dist.Dist.t
(** Pushforward through a map using one fair internal coin (enough for
    Π_G under the A-star adversary). *)

val echo_map : copier:int -> target:int -> Sb_util.Bitvec.t -> Sb_util.Bitvec.t

val pi_g_astar_map : l1:int -> l2:int -> coin:bool -> Sb_util.Bitvec.t -> Sb_util.Bitvec.t
(** The announced-value map of Π_G under A* corrupting l1 < l2
    (Claim 6.6): W_{l1} = r, W_{l2} = r ⊕ (⊕_{i∉\{l1,l2\}} x_i). *)

val cr_gap_battery : Sb_dist.Dist.t -> honest:int list -> float
(** [cr_gap] with the standard predicate battery. *)

val g_gap : Sb_dist.Dist.t -> corrupted:int list -> float
(** Exact maximum over corrupted i and pairs r, s (of non-zero
    probability) of |Pr(Wᵢ=1 | W_B̄=r) − Pr(Wᵢ=1 | W_B̄=s)| —
    Definition 4.4 verbatim. *)
