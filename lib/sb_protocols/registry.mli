(** The one name → protocol table: the seven protocols of the paper,
    the commit-open ablation and the five broadcast substrates composed
    with {!Sb_broadcast.Parallel.concurrent}. Every front end resolves
    protocol names here, so every subcommand accepts the same names. *)

type claim =
  | Independence  (** the literature claims an independence notion for it *)
  | Parallel_only  (** the naive compositions: parallel broadcast, no independence *)
  | Ablation_target  (** built to fail: commit-open *)

type entry = {
  protocol : Sb_sim.Protocol.t;
  claim : claim;
  min_honest_fraction : string;  (** Informal resilience note. *)
}

val all : entry list
(** The paper's seven protocols, in [simbcast list] order. *)

val commit_open : entry
(** Bare commit-then-open, the ablation target of E12. *)

val vss : Sb_sim.Protocol.t list
(** The three VSS-based protocols (CGMA, Chor–Rabin, Gennaro). *)

val substrates : Sb_sim.Protocol.t list
(** [concurrent-<scheme>] for each of {!Sb_broadcast.Schemes.all}, in
    that order. *)

val names : string list
(** Every protocol name: commit-open, {!all}, {!substrates}. *)

val scheme : string -> Sb_broadcast.Session.scheme option
(** The substrate a name denotes, bare (["bracha"]) or composed
    (["concurrent-bracha"]). *)

val find : string -> Sb_sim.Protocol.t option
(** The protocol named [name], a bare substrate name standing for its
    [concurrent-] composition. *)

val get : string -> Sb_sim.Protocol.t
(** {!find} for a name the caller knows is listed.
    @raise Invalid_argument on an unknown name. *)
