(** Three-way statistical verdicts.

    A tester estimates a gap that the definition requires to be
    negligible. With finite samples we distinguish:

    - [Pass] — the whole confidence interval sits below 0.08:
      the gap is statistically indistinguishable from negligible;
    - [Fail] — the whole interval sits above 0.15: the gap is
      bounded away from zero with high confidence;
    - [Inconclusive] — anything else (typically: not enough samples).

    Keeping Pass and "failed to reject" apart matters because the
    paper's separations predict *constant* gaps (1/4 and up), far above
    any sampling noise at the Ns used. *)

type t = Pass | Fail | Inconclusive

val of_gap : Estimate.interval -> t
(** The pass bound is 0.08 and the fail bound 0.15 — far below the
    constant gaps (1/4 and up) the paper's separations predict, and
    comfortably above the estimator noise at the default sample
    budgets. *)

val all_pass : t list -> t
(** [Pass] iff every element passes; [Fail] if any fails;
    [Inconclusive] otherwise. *)

val to_string : t -> string
val equal : t -> t -> bool
