(** Deterministic work partitioning for the domain pool.

    The sampling loops draw a fixed number of [Sb_util.Rng] children
    per item from a master generator. Pre-splitting the master into one
    stream per draw ([streams]) makes every item's randomness a pure
    function of its index, so any contiguous chunking of the index
    space ([chunks]) — one chunk, two, or one per core — replays
    byte-identical per-item streams. *)

type chunk = { lo : int; len : int }

val chunks : total:int -> jobs:int -> chunk array
(** [chunks ~total ~jobs] covers [0 .. total-1] with at most [jobs]
    contiguous, non-empty chunks whose sizes differ by at most one.
    Returns [[||]] when [total = 0]. The layout depends only on
    [(total, min jobs total)]. *)

val streams : Sb_util.Rng.t -> total:int -> draws_per_item:int -> Sb_util.Rng.t array
(** [streams rng ~total ~draws_per_item] pre-splits [rng] into
    [total * draws_per_item] independent child generators. Item [i]'s
    [k]-th draw is stream [draws_per_item * i + k] — exactly the child
    a sequential loop performing [draws_per_item] [Rng.split]s per
    iteration would have obtained. *)
