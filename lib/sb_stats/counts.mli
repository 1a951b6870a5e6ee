(** Counting helpers for empirical distributions over {0,1}^n and
    generic event bookkeeping used by the testers. *)

type table
(** Counts indexed by bit-vector value. *)

val create : int -> table
(** [create n] for vectors of length n (n <= 20). *)

val add : table -> Sb_util.Bitvec.t -> unit

val empirical_tvd : table -> table -> float
(** Plug-in total-variation distance between two empirical
    distributions (both normalised by their own totals). Biased
    upwards for small samples — callers compare against a same-size
    self-distance baseline rather than against zero. *)

type event
(** Streaming joint/marginal counter for a pair of events (A, B):
    feeds the CR correlation-gap estimator. *)

val event_pair : unit -> event
val record : event -> a:bool -> b:bool -> unit

val event_merge_into : into:event -> event -> unit
(** Sum [src]'s trial/marginal/joint counts into [into]. Counts are
    integers, so merging is exact and order-independent. *)

val gap : event -> Estimate.interval
(** Conservative interval for |P(A∧B) − P(A)P(B)|. *)
