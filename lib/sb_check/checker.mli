(** Exhaustive small-n model checking of simultaneous-broadcast
    session properties under benign faults.

    For n <= {!max_n} the checker enumerates every adversarial choice
    available to the benign-fault model: the faulty set B (all subsets
    of size 0..t, via {!Sb_util.Subset.all_up_to}), the sender and the
    broadcast value, and — round by round — every crash / round
    omission / one-round delay a faulty party can apply to its own
    outgoing traffic (the [sb_fault] plan alphabet made deterministic;
    omission and delay are all-or-nothing within a round, the same
    clean benign granularity {!Sb_fault.Plan} gives crash-stop).
    Each reachable terminal state is evaluated exactly; memoized state
    digests ({!Exec.snapshot}) collapse converging fault paths.

    Sessions in {!Sb_broadcast.Parallel.concurrent} composition are
    independent — sid-tagged messages, per-session inboxes, and a
    benign-fault interceptor that acts per link — so a composed
    protocol satisfies a property iff every single-sender session does.
    Checking sessions standalone is therefore both sound and complete
    for the composed substrates, and keeps the state space tractable.

    The three properties, per terminal state, quantified over the
    honest parties (the complement of B — benign-faulty parties run
    honest code but their deliveries are adversarial, so their own
    outputs are not obligated):

    - {b agreement}: all honest results are equal;
    - {b validity}: if the sender is honest, every honest result is
      the sent value;
    - {b unforgeability}: every honest result is the sent value or the
      substrate's default — no honest party ever accepts a value the
      sender never sent.

    Verdicts are exact ([Holds] means proven over the whole reachable
    space, [Violated] carries a minimal replayable witness); a state
    budget turns unfinished [Holds] into [Inconclusive]. *)

type property = Agreement | Validity | Unforgeability

val property_name : property -> string

type witness = {
  w_property : property;
  w_sender : int;
  w_value : Sb_sim.Msg.t;
  w_faulty : Sb_util.Subset.t;
  w_decisions : Exec.decision list;  (** minimized, one entry per round *)
}

type verdict = Holds | Violated of witness | Inconclusive

val verdict_name : verdict -> string
(** ["pass"], ["violated"], or ["inconclusive"]. *)

type stats = {
  explored : int;  (** distinct states expanded (across all configs) *)
  memo_hits : int;  (** re-derivations answered by the visited set *)
  terminals : int;  (** terminal states evaluated *)
  configs : int;  (** (faulty set, sender, value) combinations *)
}

type result = {
  protocol : string;
  n : int;
  t : int;
  max_states : int;
  capped : bool;  (** the state budget cut exploration short *)
  agreement : verdict;
  validity : verdict;
  unforgeability : verdict;
  stats : stats;
}

val max_n : int
(** Largest supported party count (5): beyond it the per-round
    decision product is out of exhaustive reach. *)

val schemes : (string * Sb_broadcast.Session.scheme) list
(** Checkable substrates by CLI name, in {!Core.Resilience.substrates}
    order: send-echo, dolev-strong, eig, bracha, phase-king. *)

val find_scheme : string -> Sb_broadcast.Session.scheme option
(** Accepts both the bare name and the composed ["concurrent-"] form. *)

val check :
  ?max_states:int ->
  ?default:Sb_sim.Msg.t ->
  ?observe:(Exec.config -> Exec.decision list -> string -> Exec.status option -> unit) ->
  scheme:Sb_broadcast.Session.scheme ->
  Sb_sim.Ctx.t ->
  result
(** Exhaustively check one substrate at the context's (n, t). The
    values enumerated are [Bit false] and [Bit true]; [default]
    (default [Bit false]) is the substrate's no-accept fallback used
    by the unforgeability predicate. [max_states] (default
    [200_000]) bounds the total number of expanded states. First
    witnesses are retained per property in deterministic enumeration
    order and greedily minimized. [observe], when given, sees every
    state the search reaches, in visit order: its config, decision
    prefix and digest, and — unless it was a memo hit — its status.
    Updates the [check.*] metrics counters. @raise Invalid_argument if [n > max_n]. *)

val plan_of_witness : witness -> Sb_fault.Plan.t
(** Compile the witness schedule to the [--faults] grammar:
    round-scoped certain drops ([drop:1:p->d\@r]), one-round delays
    ([delay:1:p->*\@r]) and crashes ([crash:p\@r]) — replaying it
    through {!Sb_fault.Inject} over a composed [Network.run] of the
    same session reproduces the violation. *)

val witness_inputs : n:int -> witness -> string
(** The composed-run input vector realizing the witness config: the
    sender's bit is the witness value, all other coordinates 0. *)

val pp_witness : Format.formatter -> witness -> unit

val result_to_json : result -> Sb_obs.Json.t
(** The report-schema-v5 [check] block: protocol, n, t, state counts,
    capped flag, one verdict string per property, and a
    counterexamples array (property, sender, value, faulty, faults,
    inputs) for the violated ones. *)
