(** Pearson chi-square homogeneity test for binomial groups.

    Used as a secondary, global statistic by the G tester: are the
    per-bucket conditional one-probabilities consistent with one
    pooled probability? Unlike the per-bucket interval checks this
    aggregates evidence across all buckets into a single statistic
    with a known null distribution. *)

type result = {
  statistic : float;  (** Σ (observed − expected)² / expected *)
  dof : int;  (** groups − 1 *)
  p_value : float;  (** right tail of the chi-square distribution *)
}

val homogeneity : (int * int) list -> result
(** [homogeneity groups] where each group is (successes, trials).
    Requires at least 2 groups, each with trials > 0. Groups whose
    pooled expected count would be < 5 should be merged or dropped by
    the caller (standard validity rule). *)

