(** Semi-honest BGW evaluation of an arithmetic circuit on the
    simulated network (Ben-Or–Goldwasser–Wigderson, STOC 1988 — the
    [2] of the paper's Claim 6.5).

    Honest-majority (2t < n) Shamir-based evaluation:

    - round 0: every party deals degree-t Shamir shares of each of its
      input wires;
    - one communication round per multiplication layer: parties
      multiply their shares locally (degree 2t), redistribute degree-t
      shares of the product point, and recombine with the public
      Lagrange coefficients (GRR degree reduction);
    - one final round of output-share exchange and interpolation.

    Addition, subtraction and scaling are local. Security is
    semi-honest: corrupted parties may choose arbitrary INPUTS (which
    is all the Lemma 6.4 adversary A* needs — it only flips its
    auxiliary input bits) but follow the protocol; t < n/2 shares
    reveal nothing about honest inputs, and the tests check the
    end-to-end functionality against {!Circuit.eval_plain}. *)

val protocol :
  name:string ->
  circuit:Circuit.t ->
  encode:(rng:Sb_util.Rng.t -> id:int -> Sb_sim.Msg.t -> Sb_crypto.Field.t list) ->
  decode:(Sb_crypto.Field.t list -> Sb_sim.Msg.t) ->
  Sb_sim.Protocol.t
(** [encode] maps a party's protocol input to its circuit input wires
    (count must equal the circuit's declared inputs for that party;
    the rng serves auxiliary random inputs); [decode] maps the public
    output-wire values to the party's protocol output. Requires
    [circuit]'s party count = ctx.n and 2·ctx.thresh < ctx.n at run
    time. The protocol runs 2 + the circuit's multiplication layers
    rounds. *)
