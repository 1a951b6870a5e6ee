(** Non-interactive string commitments, with two backends.

    - [Hash]: c = SHA-256(tag ‖ value ‖ nonce) with a k-byte uniform
      nonce. Binding by collision resistance, hiding modelled on the
      random oracle. This is the "real" instantiation of the enhanced-
      trapdoor-permutation commitments the paper's feasibility results
      assume.

    - [Ideal]: the commitment string is an opaque fresh handle and a
      process-global registry maps handles to values. Perfectly hiding
      and binding, and additionally *extractable* and *equivocable* —
      the CRS-model commitment the simulation-based (Sb) proofs rely
      on. [extract] and [equivocate] are simulator-only powers: honest
      protocol code never calls them, and the test suite checks that
      protocols behave identically under the two backends.

    A [scheme] value carries the backend plus (for [Ideal] and for
    random-oracle extraction under [Hash]) its registry, so independent
    experiments never share state. *)

type backend = Hash | Ideal

type scheme

type commitment = string
(** Opaque; safe to send over the simulated network and to compare for
    equality. *)

type opening = { value : string; nonce : string }

val create : ?k:int -> backend -> scheme
(** [k] is the nonce length in bytes (default 16). *)

val backend : scheme -> backend
val commit : scheme -> Sb_util.Rng.t -> string -> commitment * opening
val verify : scheme -> commitment -> opening -> bool
(** [verify_uncached], memoized on the [Hash] backend. A domain-local,
    direct-mapped table of 256 slots keeps the last verdict computed
    for each slot, and [commit] seeds the slot of the commitment it
    returns; a lookup compares the full key (commitment, value and
    nonce), so a hit returns exactly what [verify_uncached] would. The
    [Ideal] backend is not memoized: {!equivocate} can rebind a
    placeholder, which turns a [false] verdict into [true]. *)

val verify_uncached : scheme -> commitment -> opening -> bool
(** The definition of a verdict, and the oracle the memo is tested
    against: on [Hash], whether the commitment is the hash of the
    opening; on [Ideal], whether the registry binds the handle to the
    opened value. *)

val slot : commitment -> opening -> int
(** The memo slot of a (commitment, opening) key, in [0, 256); exposed
    for tests that force keys into one slot. *)

val extract : scheme -> commitment -> string option
(** Simulator power: recover the committed value without the opening.
    Total on [Ideal]; on [Hash] it answers from the record of [commit]
    calls made through this scheme (random-oracle extraction), so it
    returns [None] for adversarially crafted strings that never passed
    through the oracle. *)

val commit_placeholder : scheme -> Sb_util.Rng.t -> commitment
(** Simulator power, [Ideal] only: emit a commitment with no value
    bound yet. Raises [Invalid_argument] on [Hash]. *)

val equivocate : scheme -> commitment -> string -> opening
(** Simulator power, [Ideal] only: bind a placeholder to a value and
    return a verifying opening. Raises [Invalid_argument] on [Hash], on
    unknown handles, and on already-bound handles. *)
