(** Empirical testers for G**-independence (Definition B.2) and
    G*-independence (Definition B.1).

    G** fixes the INPUTS rather than conditioning on announced values:
    for corrupted parties' inputs w and two honest input vectors r, s,

      | Pr(Wᵢ = 1 on input w ⊔ s) − Pr(Wᵢ = 1 on input w ⊔ r) |

    must be negligible for each corrupted Pᵢ. Because the probability
    space is over protocol coins only (no input conditioning), the
    tester runs two separate execution batches per (r, s) pair — no
    bucketing pathologies, which is exactly why the paper introduces
    these variants (Appendix B) and proves G** implies G on locally
    independent distributions (Proposition B.4).

    Pair selection for [run] — the G** tester: all single-bit-flip
    pairs (r, s) over the honest coordinates when 2^|honest| is small —
    the hybrid-argument structure of the paper's proofs — with the
    corrupted inputs w fixed to the given vector. [run_star] — the G*
    tester — instead compares every honest assignment x against its
    zeroed counterpart x_B ⊔ 0_B̄, the ensembles E and E₀ of Definition
    B.1. Proposition B.3 proves the two notions equivalent; experiment
    E10 checks the testers agree. *)

type finding = {
  corrupted_party : int;
  r : Sb_util.Bitvec.t;  (** full input vector variant A *)
  s : Sb_util.Bitvec.t;  (** full input vector variant B *)
  gap : Sb_stats.Estimate.interval;
  verdict : Sb_stats.Verdict.t;
}

type result = {
  findings : finding list;
  worst : finding option;
  verdict : Sb_stats.Verdict.t;
}

val run :
  Setup.t ->
  protocol:Sb_sim.Protocol.t ->
  adversary:Sb_sim.Adversary.t ->
  ?w:Sb_util.Bitvec.t ->
  unit ->
  result
(** The G** tester. [w] supplies the corrupted coordinates (default
    all-zero). Each input vector gets [max 200 setup.samples] runs. *)

val run_star :
  Setup.t ->
  protocol:Sb_sim.Protocol.t ->
  adversary:Sb_sim.Adversary.t ->
  ?w:Sb_util.Bitvec.t ->
  unit ->
  result
(** The G* tester (Definition B.1). *)
