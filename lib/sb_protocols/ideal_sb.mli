(** Ideal(f_SB): the ideal process of Definition 4.1.

    All parties hand their input bit to the trusted functionality,
    which evaluates f_SB(x) = (x, …, x) and returns the full vector to
    everyone. Corrupted parties' inputs reach the functionality
    through the adversary, but — by the ideal-channel semantics of
    {!Sb_sim.Functionality} — without the adversary ever seeing the
    honest inputs first. This protocol is the gold standard the Sb
    tester compares real protocols against, and trivially satisfies
    every independence notion on every distribution. *)

val protocol : Sb_sim.Protocol.t
