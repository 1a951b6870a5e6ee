(** Universal message algebra for the simulated network.

    Every protocol in [sb_protocols] speaks this one type, so the
    network, the trace, and the adversary interface stay protocol-
    agnostic while parties still destructure messages with ordinary
    pattern matching. [Tag] gives each protocol its own namespaced
    constructors ("share", "commit", "open", …) without a shared
    variant that every protocol would have to extend. *)

type t =
  | Unit
  | Bit of bool
  | Int of int
  | Fe of Sb_crypto.Field.t
  | Ge of Sb_crypto.Modgroup.elt
  | Str of string
  | List of t list
  | Tag of string * t

val equal : t -> t -> bool

val compare : t -> t -> int
(** Structural total order, consistent with [equal]
    ([compare a b = 0] iff [equal a b]): constructors rank in
    declaration order, same-constructor payloads compare via their own
    module's order (canonical integer representatives for [Fe]/[Ge]).
    Not polymorphic compare — abstract crypto payloads are never
    inspected through their representation. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val bits : bool list -> t
(** [List [Bit …]] shorthand. *)

val of_bitvec : Sb_util.Bitvec.t -> t
val to_bitvec_exn : t -> Sb_util.Bitvec.t
(** Raises [Invalid_argument] unless the message is a list of bits. *)

val to_bit_exn : t -> bool
val to_int_exn : t -> int
val to_fe_exn : t -> Sb_crypto.Field.t
val to_str_exn : t -> string
val to_list_exn : t -> t list

val untag_exn : string -> t -> t
(** [untag_exn tag m] strips [Tag (tag, ·)] and raises
    [Invalid_argument] on anything else. *)

val serialize : t -> string
(** Injective encoding, used as input to hashing and signatures. One
    allocation of exactly [size_bytes m] bytes, filled in one
    recursive pass with no intermediate strings; [Unit] and [Bit]
    return shared constants and allocate nothing. *)

val deserialize : string -> t option
(** Inverse of {!serialize}: [deserialize (serialize m)] is [Some m]
    for every message; [None] on strings the encoder cannot produce
    (bad framing, trailing bytes, non-canonical or non-member
    [Fe]/[Ge] representatives). Together with the round-trip property
    test this proves the codec injective, which is what wire-size
    accounting rests on. *)

val size_bytes : t -> int
(** [String.length (serialize m)], computed structurally without
    materialising the encoding — the per-envelope cost behind the
    network's [sim.bytes.*] counters. Exact for every message,
    [Int min_int] and [Int max_int] included. *)
