(** One dealer's Pedersen-VSS sharing, as a 3-local-round session over
    the broadcast-channel network, plus the deferred public
    reconstruction. This is the engine inside the CGMA-style protocol
    (one session per dealer, run sequentially), Gennaro's protocol
    (all sessions concurrent), and Chor–Rabin (concurrent sessions
    followed by the log-round confirmation tournament).

    Local rounds:
    - 0 (deal): the dealer broadcasts its coefficient commitments and
      sends each party its share pair privately;
    - 1 (complain): every party broadcasts whether its share verified;
    - 2 (respond): the dealer broadcasts the share pairs of the
      complainers; everyone judges the responses against the public
      commitment.
    - 3: judgment is final; [sharing_done] becomes meaningful.

    A dealer is disqualified — announced value 0 — iff its commitment
    was missing/malformed or some broadcast complaint lacks a valid
    broadcast response. Disqualification is decided from broadcast
    data only, so all honest parties agree on it, and it is fixed
    before any secret is revealed (the simultaneity lever: nothing an
    adversary learns at reveal time can change any committed value).

    Reconstruction: each party broadcasts its share pair with
    [reveal_msgs]; shares are filtered against the commitment and
    interpolated. With at most [ctx.thresh < n/2] corruptions there
    are always enough honest verifying shares, so a non-disqualified
    dealer's secret is always recovered — a corrupted party cannot
    even abort its own reveal (this recoverability is what kills the
    selective-abort bias attack on bare commit-then-open). *)

type t

val create :
  Sb_sim.Ctx.t ->
  rng:Sb_util.Rng.t ->
  dealer:int ->
  me:int ->
  secret:Sb_crypto.Field.t option ->
  t
(** [secret] must be [Some _] iff [me = dealer]. *)

val local_rounds : int
(** 3: deal, complain, respond. Judgment is available from local round
    3 on. *)

val step : t -> round:int -> inbox:Sb_sim.Inbox.t -> out:Sb_sim.Outbox.t -> unit
(** [round] is local; the inbox may be the party's full inbox (this
    session filters by its own tags). Sends are appended to [out]
    ({!Sb_sim.Party.t}'s step contract). *)

val reveal_msgs : t -> out:Sb_sim.Outbox.t -> unit
(** Append the broadcast this party makes to open the sharing (nothing
    if it holds no verifying share or the dealer is disqualified). *)

val collect_reveals : t -> Sb_sim.Inbox.t -> unit
(** Records the reveals in the inbox (this session's reveal tag, party
    senders only), keyed by sender: a reveal is accepted iff it decodes
    as a share pair for the sender's own index that verifies against
    the commitment. The first valid reveal per sender wins; an invalid
    one is ignored, so a later valid reveal from the same sender is
    still accepted. Senders outside 0..n−1 (which the network never
    delivers) are ignored. Nothing is recorded without a commitment.
    Repeated calls accumulate. *)

val secret : t -> Sb_crypto.Field.t option
(** Reconstructed secret: [None] if disqualified or (impossible under
    honest majority) too few verifying shares. Interpolates every
    accepted reveal, walked in sender order, through the {!Sb_crypto.Lagrange}
    table keyed by the senders' bitmask. *)

val blind : t -> Sb_crypto.Field.t option
(** Reconstructed blinding value f'(0) — used by Chor–Rabin's
    confirmation check. *)

val dealer_opening : t -> (Sb_crypto.Field.t * Sb_crypto.Field.t) option
(** Dealer side only: (f(0), f'(0)); [None] for non-dealers. *)
