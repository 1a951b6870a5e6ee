(** The ensemble battery used throughout the experiments.

    Each entry is an input-distribution ensemble over {0,1}^n together
    with its analytically known class membership, so experiment E1 can
    compare the executable classifier against ground truth, and the
    tester experiments can pick distributions from known classes. *)

type membership = {
  independent : bool;  (** exactly a product distribution at every k *)
  psi_l : bool;  (** locally independent ensemble: D(G) of the paper *)
  psi_c : bool;  (** statistically close to independent: D(CR) *)
}

type entry = { ensemble : Ensemble.t; expected : membership; note : string }

val almost_uniform : int -> entry
(** Uniform with a 2^-k mass shift towards even parity: not a product
    at any k, but the shift is negligible, so it is in Ψ_L (and Ψ_C) —
    a witness that Ψ_L is strictly larger than exact products. *)

val rare_leak : int -> entry
(** Product of fair coins except that with probability 2^-k the vector
    is forced to all-ones. Statistically within 2^-k of uniform, hence
    in Ψ_C — but conditioned on the (rare) all-ones tail the
    coordinates are maximally dependent, so the conditional gaps of
    the Ψ_L definition stay constant: in Ψ_C, not in Ψ_L. The
    executable witness that D(G) ⊊ D(CR) (Claim 5.6). *)

val copy_pair : int -> entry

val battery : int -> entry list
(** The full battery at a given n (n >= 3), uniform and xor-parity
    included. *)

val pp_membership : Format.formatter -> membership -> unit
