(** CGMA-style simultaneous broadcast (after Chor, Goldwasser, Micali,
    Awerbuch, FOCS 1985): verifiable secret sharing of every input,
    dealt one dealer at a time, then one simultaneous public
    reconstruction.

    Structure (on the broadcast-channel network the paper assumes):
    - for each dealer d = 0 … n−1 in turn, a 3-round Pedersen-VSS
      phase ({!Vss_session}): deal, complain, respond;
    - one reveal round in which everybody broadcasts all its shares;
    - output: W_d = 1 if dealer d's reconstructed secret is the field
      element 1, else 0 (disqualified dealers announce 0).

    Round complexity Θ(n) — the sequential dealing mirrors the
    original's linear-round fault handling and is what [8] and [12]
    set out to beat. Independence holds in the strong simulation sense:
    every value is information-theoretically fixed (and recoverable by
    the honest majority alone) before the first secret is revealed.

    Requires t < n/2 (honest-majority reconstruction). *)

val protocol : Sb_sim.Protocol.t

val reveal_round : n:int -> int
