(** Empirical tester for Sb-independence (Definitions 4.1/4.2).

    Sb-independence demands a simulator S whose ideal-process output
    distribution matches the real execution. Testing it empirically
    has two sides:

    {2 Universal falsification (sound against EVERY simulator)}

    In the ideal process the corrupted parties' contributed values are
    chosen by S seeing only x_B (and z): conditioned on x_B they are
    independent of the honest inputs x_B̄. Hence for any boolean
    φ (over the corrupted announced values) and ψ (over the honest
    inputs),

      Pr_ideal[ φ(W_B) = ψ(x_B̄) ]  ≤  E_{x_B} [ max_b Pr(ψ(x_B̄) = b | x_B) ]

    and symmetrically ≥ 1 − that bound. The right-hand side is computed
    EXACTLY from the input distribution; the left-hand side of the real
    protocol is estimated by sampling. A real probability outside the
    ideal feasibility band falsifies Sb-independence against all
    simulators at once — this is how the tester proves the echo attack
    (real Pr[W_copier = x_target] = 1 vs band [¼…¾]-ish) and the A*
    parity attack (real Pr[⊕W_B = ⊕x_B̄] = 1 vs band [½ ± ε]) break Sb.

    {2 Simulator comparison (positive evidence)}

    Given a candidate simulator, the tester samples the ideal joint
    (x, W) it induces and compares it to the real joint by empirical
    total-variation distance, judged against a same-size real-vs-real
    baseline (plug-in TVD is biased; the baseline calibrates it). *)

type simulator = {
  sim_name : string;
  simulate :
    Setup.t ->
    rng:Sb_util.Rng.t ->
    corrupted:int list ->
    inputs_b:(int * bool) list ->
    (int * bool) list;
      (** Corrupted parties' contributed values, from corrupted inputs
          only — the ideal-process interface. *)
}

val truthful : simulator
(** Contributes the real corrupted inputs (simulates semi-honest
    adversaries). *)

val constant : bool -> simulator
(** Test fixture for {!run}: a simulator that contributes [b] for every
    corrupted coordinate, which test_core's calibration cases use to
    make the Sb tester fail or pass on purpose. *)

val sandbox : protocol:Sb_sim.Protocol.t -> adversary:Sb_sim.Adversary.t -> simulator
(** The generic simulator behind Corollary 5.5 for the VSS-based
    protocols: run the REAL adversary in a sandboxed execution whose
    honest parties hold dummy inputs (all 0), and contribute the
    corrupted coordinates of the sandbox's announced vector.

    Why this is a correct ideal-process simulator for CGMA / Gennaro /
    Chor–Rabin: the adversary's view of the dealing phase consists of
    perfectly hiding Pedersen commitments and at most t shares of each
    honest polynomial — both distributed identically whether the
    honest inputs are real or dummy — and the corrupted announced
    values are fixed (recoverable by the honest majority) at the end
    of that phase, before any reveal. So the sandbox's W_B has exactly
    the distribution of the real W_B given the corrupted inputs, while
    never looking at an honest input. For protocols WITHOUT that
    structure (naive, commit-open, Π_G under the A-star adversary) the
    sandbox simulator exists but produces a detectably wrong joint
    distribution — which is precisely what the tester then reports. *)

type falsifier_result = {
  falsifier : string;
  real_p : Sb_stats.Estimate.interval;
  ideal_max : float;  (** upper edge of the ideal feasibility band *)
  ideal_min : float;
  verdict : Sb_stats.Verdict.t;
}

type result = {
  falsifiers : falsifier_result list;
  sim_tvd : float option;  (** real vs ideal-with-simulator joint TVD *)
  baseline_tvd : float option;  (** real vs real split baseline *)
  verdict : Sb_stats.Verdict.t;
      (** Fail if any universal falsifier fails; else Pass if the
          simulator comparison is within noise of the baseline (or no
          corruption); else Inconclusive. *)
}

val run :
  Setup.t ->
  protocol:Sb_sim.Protocol.t ->
  adversary:Sb_sim.Adversary.t ->
  dist:Sb_dist.Dist.t ->
  ?simulator:simulator ->
  unit ->
  result
