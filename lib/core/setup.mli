(** Experiment configuration shared by every tester: network size,
    corruption bound, security parameter, commitment backend, sample
    budget, and the master seed everything derives from. *)

type t = {
  n : int;
  thresh : int;
  k : int;
  backend : Sb_crypto.Commit.backend;
  samples : int;  (** Monte-Carlo executions per estimate *)
  seed : int;
}

val default : t
(** n = 5, thresh = 2, k = 16, Hash backend, 6000 samples, seed 1. *)

val with_samples : int -> t -> t
val with_n : n:int -> thresh:int -> t -> t
val with_seed : int -> t -> t

val fresh_ctx : t -> Sb_util.Rng.t -> Sb_sim.Ctx.t
(** A new execution context (fresh commitment registry, PKI, CRS) —
    one per protocol run, so runs never share cryptographic state. *)
