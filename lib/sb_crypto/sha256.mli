(** SHA-256, implemented from scratch (FIPS 180-4).

    The repository is sealed, so the hash the commitment scheme and the
    signature registry rest on is implemented here rather than imported.
    Only the plain one-shot interface is needed by the rest of the
    system, but an incremental interface is provided for completeness
    and to make the test suite's chunking properties meaningful. *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit
(** May be called repeatedly; bytes are processed in 64-byte blocks. *)

val finalize : ctx -> string
(** 32-byte raw digest. The context must not be used afterwards. *)

val digest : string -> string
(** One-shot 32-byte raw digest. *)

val to_hex : string -> string
(** Hex-encode an arbitrary string. *)

val xor_strings : string -> string -> string
(** Pointwise XOR of two equal-length strings; used to build masks and
    pads on top of the hash. *)
