(** Ideal signature functionality for authenticated broadcast.

    Dolev–Strong broadcast needs digital signatures that every party can
    verify and only the owner can produce. We model them as an ideal
    registry: a [scheme] holds one secret MAC key per party; [sign]
    computes SHA-256(key_i ‖ msg) and the key never leaves the module,
    so unforgeability holds by construction rather than by assumption.
    The simulated adversary signs for corrupted parties through the same
    interface — which is exactly its power in the real model. *)

type scheme
type signature = string

val create : Sb_util.Rng.t -> n:int -> scheme
(** Fresh keys for parties 0 … n−1 (the trusted-setup/PKI step). *)

val sign : scheme -> signer:int -> string -> signature
(** [sign_uncached], memoized. A domain-local, direct-mapped table of
    256 slots keeps the last signature computed for each slot; a
    lookup compares the full key (the signer's secret key, the signer
    and the message), so a hit returns exactly what [sign_uncached]
    would, and a collision only costs a recomputation. Dolev–Strong
    parties verify the same (signer, message) pairs over and over, and
    the model checker re-executes whole decision prefixes. *)

val sign_uncached : scheme -> signer:int -> string -> signature
(** SHA-256 over the signer's key and the message: the definition of a
    signature, and the oracle the memo is tested against. *)

val verify : scheme -> signer:int -> string -> signature -> bool
(** [String.equal signature (sign s ~signer msg)], and [false] for a
    signer outside [0, n). *)

val slot : scheme -> signer:int -> string -> int
(** The memo slot of a (signer, message) pair, in [0, 256); exposed for
    tests that force keys into one slot. *)

val n : scheme -> int
