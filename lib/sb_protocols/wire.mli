(** Shared wire-format helpers for the protocol implementations. The
    tagged inbox scans live in {!Sb_sim.Envelope}
    ([iter_from_parties], [first_from]). *)

val bit_of_field : Sb_crypto.Field.t -> bool
(** Field 1 ↦ true; anything else (including garbage a corrupted
    dealer shared) ↦ false — the paper's footnote-2 default rule. *)

val field_of_bit : bool -> Sb_crypto.Field.t
