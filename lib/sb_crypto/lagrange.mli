(** Cached Lagrange basis coefficients at 0, for reconstruction hot
    paths.

    Share index [i] sits at the abscissa [i + 1] (the {!Shamir}
    convention), so the secret is the interpolating polynomial's value
    at 0. There is one cache: it maps an index set, keyed by its
    bitmask [⋁ 1 lsl i] (one int for sets inside 0..61, more words
    beyond), to the basis vector of that set, so the O(n²) basis
    computation is paid once per distinct set, and a hit on a set
    inside 0..61 allocates nothing. The cache is domain-local, so the
    module is safe and lock-free under sb_par domain parallelism, and
    deterministic at every [--jobs] value. Arbitrary abscissae and
    evaluation points are {!Poly.interpolate_at}'s job. *)

val interpolate_at_zero : index:('a -> int) -> value:('a -> Field.t) -> 'a list -> Field.t
(** [interpolate_at_zero ~index ~value shares] is
    [Poly.interpolate_at [(index s + 1, value s); …] 0], in any order
    of [shares]: it sums [value s · l.(index s)] with [l] the cached
    basis vector of the shares' index set, building no point list.
    Raises [Invalid_argument "Poly.interpolate: duplicate abscissae"]
    on a repeated index, and [Invalid_argument] on a negative one.
    Charges the ["reconstruct"] attribution bucket when tracing is
    on. *)

val at_zero : int -> Field.t array
(** [at_zero n]: coefficients at 0 for the indices 0..n−1 (abscissae
    1..n), the mask 2ⁿ−1 — the public recombination vector of Shamir
    reconstruction and BGW degree reduction over the full party set.
    The returned array is shared — do not mutate. *)
