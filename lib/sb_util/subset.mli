(** Index sets over [n] = {0, …, n−1}.

    The paper constantly splits [n] into a corrupted set B and its honest
    complement; definitions then quantify over subsets. These helpers keep
    that bookkeeping in one place. Sets are sorted int lists without
    duplicates. *)

type t = int list

val complement : int -> t -> t
(** [complement n s] is [n] \ s, sorted. *)

val mem : int -> t -> bool
val is_valid : int -> t -> bool
(** Sorted, duplicate-free, all members in [0, n). *)

val of_list : int list -> t
(** Sorts and deduplicates. *)

val all_up_to : int -> int -> t list
(** [all_up_to n k] enumerates every subset of size 0..k, sizes in
    ascending order, each size in lexicographic order (smallest leading
    index first) — the corruption-budget enumeration
    [∅, {0}, …, {n−1}, {0,1}, …]. Sizes past [n] contribute nothing. *)

val pp : Format.formatter -> t -> unit
