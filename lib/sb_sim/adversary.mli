(** Static, rushing adversaries.

    An adversary picks its corrupted set up front (static corruption),
    then each round receives a {!view} containing

    - every envelope delivered to a corrupted party this round
      ("messages addressed to corrupted players arrive instantly"), and
    - every envelope honest parties are sending *this same round*,
      except functionality-bound ones — this is rushing combined with
      the model's "adversary reads all channels" (§3.1);

    and answers with the corrupted parties' outgoing envelopes for the
    round. The network discards any envelope whose [src] is not a
    corrupted party, so spoofing honest senders is impossible (the
    point-to-point channels are authenticated).

    Strategies are closures over mutable state, created per execution
    by [init]. *)

type view = {
  round : int;
  delivered : Envelope.t list Lazy.t;  (** to corrupted parties, this round *)
  rushed : Envelope.t list Lazy.t;  (** honest parties' same-round traffic *)
}
(** Both lists are built only when forced, from storage the network
    reuses: force them during the round's [act] (later raises
    [Invalid_argument]); a forced list may be kept. They hold
    point-to-point copies, never a send-all record
    ({!Envelope.expand_onto}). *)

type strategy = {
  act : view -> Envelope.t list;
      (** A send-all record ({!Envelope.to_all}) in the answer counts,
          filters and is traced as its copies. *)
  adv_output : unit -> Msg.t;
}

type t = {
  name : string;
  choose_corrupt : Ctx.t -> rng:Sb_util.Rng.t -> int list;
  (** Must return at most [ctx.thresh] distinct ids; checked by the
      network. *)
  init :
    Ctx.t ->
    rng:Sb_util.Rng.t ->
    corrupted:int list ->
    inputs:(int * Msg.t) list ->
    aux:Msg.t ->
    strategy;
  (** [inputs] are the corrupted parties' own inputs; [aux] is the
      auxiliary input z of the definitions. *)
}

val passive : Protocol.t -> t
(** Corrupts nothing; [adv_output] is [Msg.Unit]. The baseline "honest
    execution" adversary. *)

val semi_honest : Protocol.t -> corrupt:int list -> t
(** Corrupted parties run the protocol code honestly on their real
    inputs; the adversary records its full view and outputs it. Used to
    check that corruption alone (with rushing visibility) breaks
    nothing. *)

val substitute_inputs :
  Protocol.t -> corrupt:int list -> choose:(Sb_util.Rng.t -> (int * Msg.t) list -> (int * Msg.t) list) -> t
(** Corrupted parties run honestly but on substituted inputs, chosen
    before the execution starts (so independence is respected —
    this adversary should pass every tester). *)
