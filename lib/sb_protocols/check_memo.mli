(** Shared memo of the public checks in VSS-based protocols.

    Every honest party of a run verifies the same broadcast share
    reveals against the same broadcast commitments, and every
    Chor–Rabin party recomputes the same knowledge tags: n parties
    repeat each check. The answers are pure functions of public data,
    so one domain-local, direct-mapped table serves them all. A lookup
    compares the full key (a commitment is compared element by element
    and copied when stored), so a hit returns exactly what the
    uncached function would: outputs are byte-identical with or
    without the memo, at every [--jobs]. *)

val verify_share : Sb_crypto.Pedersen.commitment -> Sb_crypto.Pedersen.share -> bool
(** Same verdict as {!Sb_crypto.Pedersen.verify_share}. *)

val knowledge_tag :
  (salt:string -> dealer:int -> secret:Sb_crypto.Field.t -> blind:Sb_crypto.Field.t -> string) ->
  salt:string ->
  dealer:int ->
  secret:Sb_crypto.Field.t ->
  blind:Sb_crypto.Field.t ->
  string
(** [knowledge_tag compute ~salt ~dealer ~secret ~blind] is
    [compute ~salt ~dealer ~secret ~blind], computed once per key while
    the key keeps its slot. [compute] must be pure, and the same
    function at every call site. *)

(** {2 Slot layout, for tests that force keys into one slot} *)

val share_slot : Sb_crypto.Pedersen.commitment -> Sb_crypto.Pedersen.share -> int
(** The slot a share verdict lives in. It reads only the first
    commitment element, so commitments that differ later share it. *)

val tag_slot :
  salt:string -> dealer:int -> secret:Sb_crypto.Field.t -> blind:Sb_crypto.Field.t -> int
(** The slot a knowledge tag lives in. It reads only the first 8 bytes
    of the salt. *)
