(** The subprotocol Θ of Lemma 6.4, as an ideal functionality securely
    computing the function g.

    g(v), with each vᵢ parsed as (xᵢ, bᵢ):
    - draw a uniform bit r; let L = \{ i : bᵢ = 1 \};
    - if |L| = 2 with ℓ₁ < ℓ₂: let y = ⊕_{i ∉ L} xᵢ and set
      w_{ℓ₁} = r, w_{ℓ₂} = r ⊕ y, and wᵢ = xᵢ elsewhere;
    - otherwise w = x;
    - output w to every party.

    Claim 6.5 states a protocol securely implementing g exists (by
    general SFE); running g inside the trusted-party hook exercises
    exactly the behaviour the lemma's proof reasons about: each single
    wᵢ is uniform given the honest outputs (r masks everything), but
    w_{ℓ₁} ⊕ w_{ℓ₂} equals the XOR of everyone else's bits, so the
    XOR of ALL announced values is forced to 0. *)

val input_tag : string
(** Parties send Tag(input_tag, List [Bit x; Bit b]). *)

val output_tag : string

val g :
  r:bool -> (bool * bool) array -> bool array
(** Test oracle for {!make} and [Theta_real.circuit]: the function g as
    a pure function; [r] is the internal coin. *)

val make : Sb_sim.Ctx.t -> rng:Sb_util.Rng.t -> Sb_sim.Functionality.t
