(** Deterministic fault plans for the simulated network.

    A plan is a list of fault specifications, compiled by {!Inject}
    into a per-run {!Sb_sim.Network.interceptor}. Four benign-fault
    primitives cover the classic regimes the broadcast substrates were
    designed against:

    - {b crash-stop}: party [p] halts at round [r] — every envelope it
      would emit from round [r] on (point-to-point, broadcast-channel,
      and functionality-bound alike) is suppressed. Round granularity
      makes a crash all-or-nothing within a round, the clean omission
      model; the party object still steps locally, so its (stale)
      output must be excluded by the caller — see
      {!crashed_parties}.
    - {b Bernoulli omission}: each matching point-to-point envelope is
      independently dropped with probability [p], coins drawn from the
      run's dedicated fault stream. An optional round scope [at]
      restricts the rule to envelopes sent in exactly that round —
      with [p = 1.0] this is a deterministic per-round omission, the
      form the model checker's counterexample traces use.
    - {b fixed delay}: each matching point-to-point envelope is held
      back [by] rounds (re-entering the delivery queue as if sent
      [by] rounds later); envelopes still in flight when the protocol
      ends are lost. Also takes an optional sending-round scope
      [at].
    - {b partition}: during network rounds [first..last] (inclusive,
      sending-round), point-to-point envelopes whose endpoints sit in
      different groups are dropped. Parties not listed in any group
      form one implicit extra group.

    Link faults (drop/delay/partition) apply only to party-to-party
    envelopes with distinct endpoints: self-delivery never crosses the
    network, and the regular broadcast channel and the ideal
    functionality channel are model-provided primitives, assumed
    reliable. Crash-stop, being a property of the party rather than a
    link, silences all of its traffic.

    The [--faults] command-line grammar accepted by {!of_string}
    (faults separated by [';'], links as [SRC->DST] with ['*'] for
    "any"):

    {v
    spec  ::= fault (';' fault)*
    fault ::= 'crash:' PARTY '@' ROUND
            | 'drop:'  PROB  [':' link] ['@' ROUND]
            | 'delay:' BY    [':' link] ['@' ROUND]
            | 'part:'  group ('|' group)+ '@' FIRST '-' LAST
    link  ::= endp '->' endp        endp  ::= PARTY | '*'
    group ::= PARTY (',' PARTY)*
    v}

    e.g. ["crash:4@1;drop:0.1;delay:2:0->3;part:0,1|2,3,4@2-5"], or the
    checker-style deterministic ["drop:1:2->0@1;delay:1:2->*@2"]. *)

type link = { l_src : int option; l_dst : int option }
(** [None] matches any party on that side. *)

type spec =
  | Crash of { party : int; round : int }
  | Drop of { link : link; p : float; at : int option }
  | Delay of { link : link; by : int; at : int option }
  | Partition of { groups : int list list; first : int; last : int }

type t = spec list

val crash : party:int -> round:int -> spec

val drop : ?src:int -> ?dst:int -> ?at:int -> float -> spec
(** [drop p] with an optional link restriction and an optional
    sending-round scope [at] (the rule fires only in that round). *)

val delay : ?src:int -> ?dst:int -> ?at:int -> int -> spec
(** [delay by] with an optional link restriction and an optional
    sending-round scope [at]. *)

val link_matches : link -> src:int -> dst:int -> bool

val crashed_parties : t -> int list
(** Sorted, de-duplicated ids of parties any [Crash] spec halts.
    Static — callers measuring agreement among survivors exclude
    exactly these. *)

val validate : n:int -> t -> (unit, string) result
(** Party ids in [0, n), probabilities in [0, 1], delays >= 1, crash
    rounds and round scopes >= 0, partition groups disjoint with
    [first <= last]. *)

val to_string : t -> string
(** Round-trips with {!of_string}; [""] for the empty plan. *)

val of_string : string -> (t, string) result
(** Parse the [--faults] grammar above. Does not range-check ids
    against an [n] — combine with {!validate}. *)
