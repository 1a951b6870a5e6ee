(** Shared wire-format helpers for the protocol implementations. *)

open Sb_sim

val iter_from_parties : tag:string -> (int -> Msg.t -> unit) -> Envelope.t list -> unit
(** [iter_from_parties ~tag f inbox] calls [f src m] for every envelope
    in the inbox whose body is [Tag (tag, m)] and whose sender is
    [Party src], in inbox order; [Func] and [All] senders are skipped.
    The one scan primitive: it allocates nothing itself, so a protocol
    that consumes each tagged payload once pays no list per scan. Tags
    compare as whole strings, so ["vss:1:comm"] never matches
    ["vss:11:comm"]. *)

val first_from : tag:string -> src:int -> Envelope.t list -> Msg.t option
(** The first [tag]-tagged payload sent by party [src] in the inbox,
    if any. *)

val bit_of_field : Sb_crypto.Field.t -> bool
(** Field 1 ↦ true; anything else (including garbage a corrupted
    dealer shared) ↦ false — the paper's footnote-2 default rule. *)

val field_of_bit : bool -> Sb_crypto.Field.t
