(** Empirical tester for G-independence (Definition 4.4).

    For each corrupted party Pᵢ the definition demands that

      | Pr(Wᵢ = bᵢ | W_B̄ = r) − Pr(Wᵢ = bᵢ | W_B̄ = s) |

    be negligible for every pair of honest announced vectors r, s of
    non-zero probability. Samples are bucketed by the honest announced
    vector; buckets below [min_bucket] samples are skipped (their
    conditional estimates are meaningless — mirroring the definition's
    own restriction to vectors of non-zero probability, and the
    conditioning pathology the paper's G** variant exists to avoid).

    Statistically, the tester measures each bucket's conditional
    one-probability against the POOLED one-probability: the maximal
    pairwise gap of the definition is sandwiched between 1× and 2× the
    maximal pooled deviation, and the pooled comparison avoids the
    quadratic blow-up of pairwise confidence intervals. Findings
    report the per-bucket deviations; [worst_pair] reports the largest
    raw pairwise point estimate for reference.

    Note the quantification difference with {!Cr_test}: G constrains
    only *corrupted* parties' announced bits, and only against the
    honest vector as a whole — exactly why Π_G's pairwise leak slips
    through (each corrupted bit is uniform on its own) while the CR
    parity predicate catches it. *)

type finding = {
  corrupted_party : int;
  bucket : Sb_util.Bitvec.t;  (** honest announced vector (honest coords only) *)
  cond : Sb_stats.Estimate.interval;  (** Pr(Wᵢ=1 | bucket) *)
  gap : Sb_stats.Estimate.interval;  (** |cond − pooled| *)
  verdict : Sb_stats.Verdict.t;
}

type result = {
  findings : finding list;
  worst : finding option;  (** largest pooled deviation *)
  worst_pair : (Sb_util.Bitvec.t * Sb_util.Bitvec.t * float) option;
      (** largest raw pairwise point gap (r, s, gap) *)
  chi2 : (int * Sb_stats.Chi2.result) list;
      (** per corrupted party, the global bucket-homogeneity test —
          small p-values corroborate a FAIL verdict with a single
          aggregate statistic *)
  verdict : Sb_stats.Verdict.t;
  buckets_used : int;
  buckets_skipped : int;
}

val run :
  Setup.t ->
  protocol:Sb_sim.Protocol.t ->
  adversary:Sb_sim.Adversary.t ->
  dist:Sb_dist.Dist.t ->
  unit ->
  result
(** [min_bucket] is max(50, samples/200). *)
