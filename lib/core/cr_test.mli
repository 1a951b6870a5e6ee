(** Empirical tester for CR-independence (Definition 4.3).

    For a protocol Π, adversary A and input distribution D, estimate,
    for every honest party Pᵢ and every predicate R in the battery,

      gap(i, R) = | Pr(Wᵢ = 0) · Pr(R(W₋ᵢ)) − Pr(Wᵢ = 0 ∧ R(W₋ᵢ)) |

    over [setup.samples] executions with x ← D. The definition demands
    the gap be negligible for ALL i and R; the verdict is the
    conjunction over the battery, with Wilson-interval three-way
    outcomes (see {!Sb_stats.Verdict}).

    A [Fail] is a genuine falsification (a concrete (A, i, R) witness,
    like the parity predicate against Π_G). A [Pass] is evidence
    relative to the finite predicate battery and sample budget. *)

type finding = {
  honest_party : int;
  predicate : string;
  gap : Sb_stats.Estimate.interval;
  verdict : Sb_stats.Verdict.t;
}

type result = {
  findings : finding list;
  worst : finding option;  (** largest gap point estimate *)
  verdict : Sb_stats.Verdict.t;
  inconsistent_runs : int;  (** runs where parallel-broadcast consistency broke *)
}

val run :
  Setup.t ->
  protocol:Sb_sim.Protocol.t ->
  adversary:Sb_sim.Adversary.t ->
  dist:Sb_dist.Dist.t ->
  result
