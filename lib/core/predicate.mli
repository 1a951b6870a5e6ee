(** Polynomial-time predicates R over W_{-i}, for the CR definition.

    Definition 4.3 quantifies over ALL polynomial-time predicates; an
    empirical tester necessarily checks a finite battery. The battery
    below contains every predicate the paper's proofs actually use —
    in particular the parity predicate R(Z_{-i}) = (⊕_{j≠i} Z_j = 0)
    with which Lemma 6.4 breaks Π_G — plus the natural per-coordinate
    and threshold tests. A FAIL against any battery member falsifies
    CR-independence outright; a PASS is evidence bounded by the
    battery (documented in EXPERIMENTS.md). *)

type t = {
  name : string;
  eval : bool array -> bool;
      (** Input: the announced vector with coordinate i removed,
          original order preserved. *)
}

val battery : n:int -> t list
(** In order: "parity=0" (⊕_j z_j = 0, the Lemma 6.4 predicate),
    "bit[j]" = z_j for every position j of the reduced vector (n−1 of
    them), "majority", "all-zero" and "adjacent-equal" (some two
    neighbouring coordinates agree). *)
