(** Fixed-length bit vectors over {0,1}^n.

    The paper works throughout with n-dimensional bit vectors: party
    inputs [x], announced values [W], and the index-set projections
    [x_S], [w_G ⊔ z_B] of its Section 2. This module is that notation,
    executable. Vectors are immutable. *)

type t

val length : t -> int

val of_bools : bool array -> t
(** Copies the array. *)

val to_bools : t -> bool array
(** Fresh array. *)

val of_int : int -> int -> t
(** [of_int n v] is the n-bit vector whose i-th coordinate is bit i of
    [v] (little-endian: coordinate 0 = least significant bit).
    Requires [0 <= n <= 62]. *)

val to_int : t -> int
(** Inverse of [of_int]; requires [length <= 62]. *)

val zero : int -> t
(** All-zeros vector of the given length. *)

val get : t -> int -> bool
val set : t -> int -> bool -> t
(** Functional update. *)

val init : int -> (int -> bool) -> t
val random : Rng.t -> int -> t

val proj : t -> int list -> bool array
(** [proj x s] is x_S: the coordinates of [x] whose indices lie in [s],
    in the order given by [s]. *)

val combine : t -> int list -> bool array -> t
(** [combine x s z] is [x] with the coordinates listed in [s] replaced
    by the entries of [z] (the paper's w_G ⊔ z_B, with [x] supplying the
    complement of [s]). [z] must have the same length as [s]. *)

val parity : t -> bool
(** XOR of all coordinates. *)

val equal : t -> t -> bool
val to_string : t -> string
(** E.g. "01101"; coordinate 0 printed first. *)

val of_string : string -> t
val all : int -> t list
(** All 2^n vectors of length [n], in [to_int] order. Requires n <= 20. *)

(** Mutable membership vectors for hot loops.

    [set] on the immutable {!t} copies the whole vector, which turns a
    substrate's per-delivery receive-set update into O(n) — O(n^3) per
    single-sender session. Sessions that record one bit per incoming
    message (Bracha/send-echo echo sets, Dolev-Strong signer masks,
    EIG path distinctness) keep one [Mut.mut] per session instead and
    update it in place; scratch users clear just the bits they set, so
    reuse stays O(len) per check.

    A [mut] of length n stores one bit per party, packed into
    ceil(n/8) bytes, so even an n = 2048 set is allocated in the minor
    heap. [get] and [set] raise [Invalid_argument "index out of bounds"]
    for an index outside [0, n), as indexing a [bool array] of length n
    does; the padding bits of the last byte are never reachable. *)
module Mut : sig
  type mut

  val create : int -> mut
  (** All-false vector of the given length. *)

  val get : mut -> int -> bool

  val set : mut -> int -> bool -> unit
  (** In-place update. *)
end
