(** Executable membership tests for the paper's distribution classes
    (Section 5):

    - Φ_n — independent ensembles (exact products at every k);
    - Ψ_C — ensembles computationally (here: statistically, which on a
      constant-size domain coincides with computationally) close to
      some independent ensemble: the achievable class D(CR);
    - Ψ_L — locally independent ensembles: the achievable class D(G).

    A fixed distribution on a constant-size domain is classified by
    evaluating its gaps on a grid of security parameters and testing
    whether they vanish. Distance to the *nearest* product is upper-
    bounded by the distance to the product of the ensemble's own
    marginals (within a factor n+1), which is what
    {!Dist.independence_gap} computes; the battery's gaps are either
    exactly 0, Θ(2^-k) or constants, so the factor is immaterial. *)

type verdict = {
  independent : bool;
  psi_l : bool;
  psi_c : bool;
  local_gaps : (int * float) list;  (** (k, Ψ_L gap) on the grid *)
  indep_gaps : (int * float) list;  (** (k, Ψ_C gap) on the grid *)
}

val classify : Ensemble.t -> verdict
(** The verdict on the grid {!Ensemble.default_ks}. *)

val check_hierarchy : verdict -> bool
(** Φ ⊆ Ψ_L ⊆ Ψ_C must hold for any verdict; sanity guard used by
    tests and by experiment E1. *)

val pp : Format.formatter -> verdict -> unit
