(** SHA-256, implemented from scratch (FIPS 180-4).

    The repository is sealed, so the hash the commitment scheme and the
    signature registry rest on is implemented here rather than imported.
    The rest of the system needs only the one-shot digest. *)

val digest : string -> string
(** One-shot 32-byte raw digest. *)

val to_hex : string -> string
(** Hex-encode an arbitrary string. *)

val xor_strings : string -> string -> string
(** Pointwise XOR of two equal-length strings; used to build masks and
    pads on top of the hash. *)
