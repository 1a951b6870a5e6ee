(** Π_G over a REAL Θ: the function g of Lemma 6.4 evaluated by the
    BGW protocol instead of a trusted party — discharging the
    substitution note on Claim 6.5 ("a protocol that securely
    implements g can be built using known techniques [2, 14, 6]").

    The circuit computes, over the prime field with all bits 0/1:

    - s = Σ bᵢ and the |L| = 2 indicator
      flag = Π_{j ≤ n, j ≠ 2} (s − j)/(2 − j);
    - first/second-flagged selectors mᵢ = bᵢ·Π_{j<i}(1−bⱼ) and
      secᵢ = bᵢ·Σ_{j<i} mⱼ (correct whenever flag = 1, which is the
      only case they are used in);
    - the masked values zᵢ = xᵢ·(1 − flag·mᵢ − flag·secᵢ),
      y = ⊕ᵢ zᵢ, and the shared coin r = ⊕ᵢ ρᵢ from one auxiliary
      random input bit per party;
    - outputs wᵢ = zᵢ + (flag·mᵢ)·r + (flag·secᵢ)·(r ⊕ y).

    Honest parties run it on (xᵢ, bᵢ = 0, ρᵢ uniform); the A* variant
    adversary is pure input substitution (bᵢ = 1 on its two corrupted
    parties), squarely inside BGW's semi-honest model. Requires
    2t < n. *)

val circuit : n:int -> Sb_mpc.Circuit.t
(** Test seam for {!protocol}: the g-circuit it bakes in for n parties,
    checked against [Theta.g] on every input; party i's declared inputs are, in
    order, (xᵢ, bᵢ, ρᵢ). *)

val protocol : n:int -> Sb_sim.Protocol.t
(** Π_G-over-BGW for a FIXED n (the circuit is baked in, so the
    execution context must use the same n). Honest parties feed
    (input bit, 0, fresh random bit). *)

val a_star_real : n:int -> corrupt:int * int -> Sb_sim.Adversary.t
(** A* against {!protocol}: the corrupted pair runs the BGW code
    honestly but with the auxiliary flag raised. *)
