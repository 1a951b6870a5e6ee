(** Bare commit-then-open parallel broadcast — deliberately WEAK.

    Round 0: everyone broadcasts a commitment to (id, bit); round 1:
    everyone broadcasts the opening; missing or invalid openings
    announce 0.

    Binding stops a corrupted party from *changing* its value after
    seeing the honest openings — but nothing stops it from *selectively
    withholding* its opening as a function of them (rushing shows it
    the honest openings first), steering its announced value between
    "committed bit" and "default 0" adaptively. The reveal-withholding
    adversary exploits exactly this, and the G/CR testers catch it —
    the ablation that shows why CGMA/Chor–Rabin/Gennaro all carry a
    verifiable-secret-sharing layer that makes reveals recoverable by
    the honest majority. *)

val protocol : Sb_sim.Protocol.t

val open_tag : string
