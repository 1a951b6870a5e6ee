(** Deterministic single-session executor for the model checker.

    One broadcast session — one sender, one value, n parties driven as
    {!Sb_broadcast.Session.t} closures — is replayed from scratch under
    an explicit per-round fault schedule. The round structure mirrors
    {!Sb_sim.Network.run} exactly (deliver → collect → intercept →
    route, with the final round delivery-only) and the fault semantics
    mirror {!Sb_fault.Inject.compile}: a crash silences all of the
    party's traffic from its crash round on, omissions and delays are
    all-or-nothing for the round — the clean benign-fault granularity,
    [drop:1:p->*\@r] / [delay:1:p->*\@r] — acting only on
    distinct-endpoint point-to-point envelopes, and delayed envelopes
    re-enter the queue ahead of that round's fresh traffic.
    A terminal state replayed here therefore agrees with a composed
    [Network.run] execution of the same session under the compiled
    {!Checker.plan_of_witness} fault plan — the counterexample
    round-trip tests pin this down.

    Sessions are mutable closures and cannot be snapshotted. The
    checker's search therefore expands each state from its parent: an
    expanded {!node} keeps its live sessions after its round's delivery
    plus that round's outgoing traffic, so a successor's digest costs
    one interception and no session step, and only a successor that
    misses the memo table is stepped. The first such successor takes
    over the parent's sessions; later ones rebuild them by re-executing
    the parent's decision prefix (without digesting it). States are
    identified across paths by a canonical digest over the per-party
    inbox histories, the crash pattern, and the in-flight queue
    (delivered and held envelopes); each envelope is serialized and
    keyed by its MD5 once, when it is sent, and the state digests hash
    those fixed-width keys. {!replay} is the from-scratch executor over the
    same round pipeline — the oracle the incremental search is tested
    against. *)

type action =
  | Crash  (** halt: all traffic from this round on is suppressed *)
  | Omit  (** drop all of this round's point-to-point sends *)
  | Delay  (** hold all of this round's point-to-point sends one round *)

type decision = (int * action) list
(** One round's adversarial choice: the faulty parties that deviate
    this round, ascending by party id. Absent parties act healthily.
    A decision list shorter than {!total_rounds} stops [Mid], at the
    first undecided round — pad with [[]] (healthy rounds) to drive a
    partial schedule to termination. *)

type config = {
  ctx : Sb_sim.Ctx.t;
  scheme : Sb_broadcast.Session.scheme;
  sender : int;
  value : Sb_sim.Msg.t;
  faulty : Sb_util.Subset.t;  (** the benign-faulty set B; |B| <= ctx.thresh *)
}

type status =
  | Mid of Sb_sim.Envelope.t list
      (** the next undecided round's outgoing queue, as sent — a
          party's omit/delay options exist only when it has
          point-to-point traffic here *)
  | Terminal of Sb_sim.Msg.t array  (** per-party session results *)

type snapshot = { digest : string; status : status }

val total_rounds : config -> int
(** Number of decision slots: the scheme's send rounds. A decision
    list of exactly this length drives the session to [Terminal]. *)

val replay : config -> decision list -> snapshot
(** Re-execute the session from round 0 under the given decisions.
    The digest canonically identifies the reached state (it covers the
    round index, so equal states at different depths never alias); two
    equal digests within one [config] have identical futures. Crash
    flags are digested as booleans, and at the terminal the dead state
    (crash flags, never-deliverable held envelopes) is dropped, so
    schedules that converge — crash early vs. late around silent
    rounds, omit vs. delay of final-round traffic — share digests. *)

(** {1 Incremental search} *)

type pending
(** A reached state whose digest is known but which is not yet
    stepped: the round's interception is applied, its delivery is
    not. *)

type node
(** An expanded non-terminal state: live sessions after its round's
    delivery, plus that round's outgoing traffic awaiting a decision. *)

type expansion = Done of Sb_sim.Msg.t array | Open of node
(** [Done] carries the per-party session results of a terminal
    state. *)

val root : config -> pending
(** The initial state: no round decided. *)

val successor : node -> decision -> pending
(** Apply one decision to the node's outgoing traffic. The node is
    left unchanged, so every decision of its menu can be tried. *)

val digest : pending -> string
(** Equal to [(replay config (path p)).digest]. *)

val path : pending -> decision list
(** The decisions leading to the state, one per round. *)

val expand : pending -> expansion
(** Step the state's delivery round. The first successor of a node
    expanded takes over the node's sessions; later ones rebuild them
    from round 0. Expand each [pending] at most once. *)

val crashed : node -> int -> bool
(** Whether party [i] crashed in a round before the node's. *)

val outgoing : node -> Sb_sim.Envelope.t list
(** The node's round outgoing traffic, as sent — what [replay] of the
    same prefix returns as [Mid]. *)
