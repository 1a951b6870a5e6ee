(** The model checker's executor and search states.

    One broadcast session ({!single_session}) runs as a passive
    {!Sb_sim.Network} run stepped round by round
    ({!Sb_sim.Network.start}); each round's decision is applied as the
    [--faults] specs {!plan_of_decision} emits, by
    {!Sb_fault.Inject.filter}, so a witness replays under [--faults]
    by construction.

    Sessions cannot be snapshotted, so a state is expanded from its
    parent: an expanded {!node} owns its run after its round's collect;
    the fault state is a value, so a successor's digest costs one
    filter call and no session step. The first successor that misses
    the memo table takes over the run; later ones rebuild it from the
    decision prefix. A digest covers the per-party inbox histories, the
    crash pattern and the in-flight queue (delivered and held), each
    envelope keyed once, when sent. {!replay} is the from-scratch
    executor — the oracle the search is tested against. *)

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

val single_session :
  Sb_broadcast.Session.scheme -> sender:int -> value:Sb_sim.Msg.t -> Sb_sim.Protocol.t
(** Test seam for the exec-vs-network differential: one session as a
    protocol, which tests run through {!Sb_sim.Network} to compare with
    this module's stepping. [sender] broadcasts [value], outputs are
    session results, inputs are ignored. *)

val plan_of_decision : round:int -> decision -> Sb_fault.Plan.t
(** [crash:p\@r], [drop:1:p->*\@r] (omit) or [delay:1:p->*\@r] per
    entry, in order. *)

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

val release : node -> unit
(** Close the node's run if no successor took it over; call it once
    the node's successors are done ({!Sb_sim.Network.start}). *)

val crashed : node -> int -> bool
(** Whether party [i] crashed in a round before the node's. *)

val outgoing : node -> Sb_sim.Envelope.t list
(** The node's round outgoing traffic, as sent — what [replay] of the
    same prefix returns as [Mid]. *)
