(** Probability ensembles: distributions indexed by the security
    parameter k (§2 of the paper).

    The paper's classes Ψ_C and Ψ_L are properties of ensembles — a
    gap that shrinks negligibly in k is fine, a constant gap is not.
    An [Ensemble.t] is therefore a function from k to a concrete
    {!Dist.t}, plus a name for reporting. Most members of the battery
    are constant in k; the interesting strictness witnesses are not. *)

type t = { name : string; n : int; at : int -> Dist.t }

val make : name:string -> n:int -> (int -> Dist.t) -> t

val constant : name:string -> Dist.t -> t
(** The same distribution at every k. *)

val local_gap_at : t -> int -> float
val independence_gap_at : t -> int -> float

type decay = Zero | Vanishing | Persistent
(** Empirical classification of a gap sequence over increasing k:
    exactly zero everywhere, decreasing towards zero (negligible-like),
    or bounded away from zero. *)

val classify_decay : (int -> float) -> ks:int list -> decay
(** Heuristic: [Zero] if every sampled gap is below 1e-9; [Vanishing]
    if the gap at the largest k is below max(1e-3, half the gap at the
    smallest k) and the sequence is non-increasing within 10%;
    [Persistent] otherwise. The battery's gaps are either exactly 0,
    Θ(2^-k), or constants ≥ 0.1, so the heuristic has wide margins. *)

val default_ks : int list
(** k ∈ {4, 6, 8, 12, 16}: the grid used by the experiments. *)
