(** Deterministic, splittable pseudo-random generator.

    Every stochastic component of the simulator (parties, adversaries,
    functionalities, samplers, testers) draws from an explicit [Rng.t] so
    that whole experiments are reproducible from a single integer seed.

    The core generator is xoshiro256**; seeding and splitting use
    splitmix64, following the recommendation of the xoshiro authors. This
    is not a cryptographic PRG, and does not need to be: it models the
    parties' random tapes in a simulation whose adversaries are code we
    control, not computational attackers on the generator itself. *)

type t

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. Equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] derives a fresh generator whose future output is
    statistically uncorrelated with [t]'s. Both generators advance
    independently afterwards; [t] itself is perturbed so repeated splits
    yield distinct children. Allocates the child's 32-byte state and
    nothing else. *)

val split_n : t -> int -> t array
(** [split_n t n] derives [n] fresh generators in one pass, advancing
    [t] by exactly [n] raw outputs. Child [k] is a pure function of
    [t]'s [k]-th output, so the array is a prefix-stable stream of
    streams: [(split_n t n).(k)] equals the [k]-th child produced by
    [k + 1] repeated [split]s from the same starting state, independent
    of how many further children are drawn. This is what lets a work
    partitioner hand chunk \[lo, hi) of a sample loop the exact child
    generators the sequential loop would have used, regardless of how
    many chunks the work is cut into. *)

val copy : t -> t
(** Test fixture for stream-replay differentials ([count_bernoulli],
    [split_n], [Dist.sample]): [copy t] duplicates the current state;
    the copy replays exactly the same stream as [t] would from this
    point. *)

val bits : t -> int -> int
(** [bits t w] returns [w] uniform bits as a non-negative int,
    [0 <= w <= 62]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive.
    Uses rejection sampling, so the distribution is exactly uniform.
    Allocates nothing. *)

val bool : t -> bool
(** One uniform bit. *)

val float : t -> float
(** Uniform in [\[0, 1)]: the top 53 bits of one draw, scaled. The
    returned float is boxed (two words) unless the call is inlined. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]: [float t < p],
    compared without boxing, so a draw allocates nothing. *)

val count_bernoulli : t -> float -> int -> int
(** [count_bernoulli t p k] is the number of [true]s among the next [k]
    [bernoulli t p] draws, and consumes exactly those [k] draws. Raises
    [Invalid_argument] unless [0 <= p <= 1] (so NaN too) and [k >= 0]. *)

val bytes : t -> int -> string
(** [bytes t len] returns [len] uniform bytes. *)

val perm : t -> int -> int array
(** Test fixture for share-order independence of [Shamir.reconstruct]
    and [Lagrange.interpolate_at_zero]: [perm t n] is a uniform
    permutation of [0 .. n-1] (Fisher–Yates). *)
