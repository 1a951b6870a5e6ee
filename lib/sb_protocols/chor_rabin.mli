(** Chor–Rabin-style simultaneous broadcast in Θ(log n) rounds (after
    Chor & Rabin, PODC 1987).

    The original achieves independence in logarithmically many rounds
    by interleaving commitments with zero-knowledge proofs of
    knowledge, verified in a tournament of pairings. This reproduction
    keeps the commit → prove-knowledge → open skeleton and the
    logarithmic tournament:

    - rounds 0–2: concurrent Pedersen-VSS of every input
      ({!Vss_session}) — the committing step, with recoverable
      openings;
    - rounds 3 … 3+D (D = ⌊log₂ n⌋): a binary-tree aggregation of
      per-party random strings; the root broadcasts the XOR of all
      contributions as a session salt. The salt is fixed only after
      every commitment is, and takes Θ(log n) rounds to assemble —
      this models the original's log-round proof tournament;
    - round 4+D: every dealer broadcasts a knowledge tag
      H(salt ‖ id ‖ f(0) ‖ f'(0)) — producible only by someone who
      knows the opening of its own commitment (the proof-of-knowledge
      step, collapsed to one round by the random-oracle hash);
    - round 5+D: simultaneous reveal of all shares.

    A dealer whose knowledge tag is missing or wrong announces 0; the
    check uses only pre-reveal data, so it introduces no adaptivity.
    Requires t < n/2. *)

val protocol : Sb_sim.Protocol.t

val tree_depth : int -> int
(** ⌊log₂ n⌋ — the number of aggregation hops. *)

val confirm_round : n:int -> int

val reveal_round : n:int -> int

val knowledge_tag : salt:string -> dealer:int -> secret:Sb_crypto.Field.t -> blind:Sb_crypto.Field.t -> string
(** The hash every party recomputes to validate a dealer's
    proof-of-knowledge tag, served from {!Check_memo}. *)

val knowledge_tag_uncached :
  salt:string -> dealer:int -> secret:Sb_crypto.Field.t -> blind:Sb_crypto.Field.t -> string
(** The same hash, computed on every call. *)
