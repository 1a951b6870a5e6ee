(** The adversary battery.

    Definition 4.x quantify over all PPT adversaries; the experiments
    instantiate the specific strategies the paper's proofs use, plus
    the natural attacks on each protocol family. Separation
    experiments need just one witness (these are them); achievability
    experiments run every member of the battery. *)

open Sb_sim

val passive : Adversary.t
(** Corrupts nobody. *)

val semi_honest : Protocol.t -> corrupt:int list -> Adversary.t
(** Runs the protocol honestly on the corrupted parties' real inputs
    (re-export of {!Sb_sim.Adversary.semi_honest}). *)

val substitute_constant : Protocol.t -> corrupt:int list -> value:bool -> Adversary.t
(** Test fixture for {!Announced.run_once}'s input substitution and the
    adversary's lazy view: corrupted parties run honestly but on a
    constant input chosen
    before the execution — input-independent misbehaviour that every
    notion of independence tolerates. *)

val substitute_random : Protocol.t -> corrupt:int list -> Adversary.t
(** Corrupted parties run honestly but on a fresh random input per
    execution — input-independent misbehaviour that every notion of
    independence tolerates. *)

val a_star : corrupt:int * int -> Adversary.t
(** The Lemma 6.4 adversary A* against Π_G: both corrupted parties
    keep their real input but raise the auxiliary flag b = 1, driving
    the functionality Θ into its leaking branch and forcing
    ⊕ᵢ Wᵢ = 0 in every execution (Claim 6.6). *)

val echo : mode:[ `Sequential | `Concurrent ] -> copier:int -> target:int -> Adversary.t
(** The §3.2 attack on the naive protocols: [copier] discards its own
    input and announces [target]'s announced value. For [`Sequential]
    the copier must come after the target in the schedule; for
    [`Concurrent] rushing makes any pair work. *)

val reveal_withhold :
  Protocol.t ->
  corrupt:int list ->
  reveal_round:(Ctx.t -> int) ->
  reveal_tag_prefix:string ->
  honest_probe:(Ctx.t -> Envelope.t list -> bool) ->
  Adversary.t
(** Selective-abort attack: corrupted parties run the protocol
    honestly, but at the reveal round they inspect the honest parties'
    same-round (rushed) reveal traffic with [honest_probe] and, if it
    returns true, suppress every outgoing message whose tag starts
    with [reveal_tag_prefix]. Against bare {!Sb_protocols.Commit_open}
    this correlates the corrupted announced value with the honest
    ones; against the VSS-based protocols it is provably ineffective
    (the honest majority reconstructs regardless). *)

val probe_commit_open_parity : Ctx.t -> Envelope.t list -> bool
(** Probe for {!Sb_protocols.Commit_open}: parse the honest openings
    rushing exposes and return the parity of the revealed honest
    bits. *)

val probe_vss_secret : dealer:int -> Ctx.t -> Envelope.t list -> bool
(** Probe for the VSS protocols: reconstruct [dealer]'s secret from
    the honest reveal shares visible in the rushed traffic and return
    whether the revealed bit is 1. *)

val copycat_dealer : copier:int -> target:int -> Adversary.t
(** Test fixture for the VSS complaint round ([Vss_session]), which
    must disqualify a copied dealing. Against the concurrent VSS
    protocols: [copier] re-broadcasts
    [target]'s round-0 coefficient commitments under its own dealer
    tag (and distributes no shares). The complaint round disqualifies
    it, so its announced value is the input-independent default 0. *)

val silent : corrupt:int list -> Adversary.t
(** Corrupted parties send nothing at all. *)
